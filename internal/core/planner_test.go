package core

import (
	"testing"
	"time"

	"datastaging/internal/gen"
	"datastaging/internal/model"
	"datastaging/internal/scenario"
	"datastaging/internal/state"
	"datastaging/internal/testnet"
)

// assertCacheMatchesParanoid schedules sc with the plan cache and with the
// re-run-everything scheduler and fails unless the schedules are identical
// and the cache did no more Dijkstra work.
func assertCacheMatchesParanoid(t *testing.T, seed int64, sc *scenario.Scenario, cfg Config) {
	t.Helper()
	cached, err := Schedule(sc, cfg)
	if err != nil {
		t.Fatalf("seed %d %v/%v cached: %v", seed, cfg.Heuristic, cfg.Criterion, err)
	}
	naive, err := scheduleParanoid(sc, cfg)
	if err != nil {
		t.Fatalf("seed %d %v/%v paranoid: %v", seed, cfg.Heuristic, cfg.Criterion, err)
	}
	assertSameSchedule(t, "cached vs paranoid", seed, Pair{cfg.Heuristic, cfg.Criterion}, cached, naive)
	if cached.Stats.DijkstraRuns > naive.Stats.DijkstraRuns {
		t.Errorf("seed %d %v/%v: cache ran more Dijkstras (%d) than paranoid (%d)",
			seed, cfg.Heuristic, cfg.Criterion, cached.Stats.DijkstraRuns, naive.Stats.DijkstraRuns)
	}
}

// TestPlanCacheMatchesParanoidRerun proves the conflict-tracking plan cache
// is exact: for a spread of generated scenarios and every heuristic/
// criterion pair, the cached scheduler and the re-run-everything scheduler
// must produce identical schedules, while the cache does strictly less
// Dijkstra work. The paper-scale cases are ones where a commit delayed a
// relaxation that had failed its capacity check, so the fresh forest
// reached a machine the cached one could not.
func TestPlanCacheMatchesParanoidRerun(t *testing.T) {
	p := gen.Default()
	p.Machines = gen.IntRange{Min: 5, Max: 7}
	p.RequestsPerMachine = gen.IntRange{Min: 5, Max: 10}
	for seed := int64(1); seed <= 3; seed++ {
		sc := testnet.Generate(p, seed)
		for _, pair := range Pairs() {
			assertCacheMatchesParanoid(t, seed, sc, Config{
				Heuristic: pair.Heuristic,
				Criterion: pair.Criterion,
				EU:        EUFromLog10(0),
				Weights:   model.Weights1x10x100,
			})
		}
	}
	for _, tc := range []struct {
		seed int64
		h    Heuristic
		eu   float64
	}{
		{1140, PartialPath, 2},
		{5018, FullPathOneDest, 0},
	} {
		assertCacheMatchesParanoid(t, tc.seed, testnet.Generate(gen.Default(), tc.seed), Config{
			Heuristic: tc.h,
			Criterion: C4,
			EU:        EUFromLog10(tc.eu),
			Weights:   model.Weights1x10x100,
		})
	}
}

// FuzzPlanCacheMatchesParanoid drives the cache invariant over fuzzer-chosen
// paper-scale scenarios, pairs, E-U weights and port serialization: the
// cached scheduler must match the re-run-everything one transfer for
// transfer, with no more Dijkstra runs. Paper scale on purpose — tight
// small instances almost never exercise a cap-blocked forest under commits.
func FuzzPlanCacheMatchesParanoid(f *testing.F) {
	f.Add(int64(1140), uint8(0), uint8(3), uint8(5), false)
	f.Add(int64(5018), uint8(1), uint8(3), uint8(3), false)
	f.Add(int64(6000), uint8(2), uint8(1), uint8(9), true)
	heuristics := []Heuristic{PartialPath, FullPathOneDest, FullPathAllDests}
	criteria := []Criterion{C1, C2, C3, C4, C5}
	sweep := []EUWeights{EUUrgencyOnly, EUPriorityOnly}
	for l := -3; l <= 5; l++ {
		sweep = append(sweep, EUFromLog10(float64(l)))
	}
	f.Fuzz(func(t *testing.T, seed int64, h, c, eu uint8, serial bool) {
		cfg := Config{
			Heuristic: heuristics[int(h)%len(heuristics)],
			Criterion: criteria[int(c)%len(criteria)],
			EU:        sweep[int(eu)%len(sweep)],
			Weights:   model.Weights1x10x100,
		}
		if cfg.Validate() != nil {
			t.Skip()
		}
		seed %= 100000
		sc, err := gen.Generate(gen.Default(), seed)
		if err != nil {
			t.Skip()
		}
		sc.SerialTransfers = serial
		assertCacheMatchesParanoid(t, seed, sc, cfg)
	})
}

// TestCommitIntoCapFailedMachineInvalidates builds the cache bug by hand.
// Item z already sits on the relay r until its gc instant (21 s). Item x,
// destined for r, can cross a→r at 8.4 s, arriving while z is still there,
// so its capacity check at r fails and its forest reaches nothing. Then
// item y's 8 s transfer delays x's relaxation into r past z's collection,
// and x fits. The commit touches no hop of x's forest and backs none of its
// arrivals; only the failed check ties them together. y either takes the
// link a→r itself or, with serialized transfers, a's send port on a link
// into w that only y's shorter transfer fits.
func TestCommitIntoCapFailedMachineInvalidates(t *testing.T) {
	const size = 1 << 20 // 8.39 s over 1 Mbit/s
	const small = 1e6    // 8 s
	bps := testnet.KBPS(1000)
	dSize := (&model.VirtualLink{BandwidthBPS: bps}).TransferDuration(size)
	dSmall := (&model.VirtualLink{BandwidthBPS: bps}).TransferDuration(small)
	for _, serial := range []bool{false, true} {
		b := testnet.NewBuilder().GC(time.Second)
		a, r, d, w := b.Machine(1<<30), b.Machine(size+small), b.Machine(1<<30), b.Machine(1<<30)
		ar := b.Link(a, r, 0, time.Hour, bps)
		rd := b.Link(r, d, 0, time.Hour, bps)
		aw := b.Link(a, w, dSize, dSize+dSmall, bps)
		src := []model.Source{testnet.Src(a, 0)}
		z := b.Item(size, src, []model.Request{testnet.Req(d, 20*time.Second, model.High)})
		y := b.Item(small, src, []model.Request{testnet.Req(d, time.Hour, model.Low)})
		x := b.Item(size, src, []model.Request{testnet.Req(r, time.Hour, model.High)})
		sc := b.Build("cap-failed-relay")
		sc.SerialTransfers = serial

		st := state.New(sc)
		tz, err := st.Commit(z, ar, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Commit(z, rd, tz.Arrival); err != nil {
			t.Fatal(err)
		}
		p := plannerOn(st, Config{Heuristic: PartialPath, Criterion: C4,
			EU: EUFromLog10(0), Weights: model.Weights1x10x100})
		if pl := p.plan(x); !pl.CapBlocked || pl.Reachable(r) {
			t.Fatalf("serial %v: x's forest before the commit: CapBlocked %v, reaches r %v; want a failed check at r",
				serial, pl.CapBlocked, pl.Reachable(r))
		}
		via := ar
		if serial {
			via = aw
		}
		if err := p.commit(y, via, tz.Arrival); err != nil {
			t.Fatal(err)
		}
		if p.plans[x] != nil {
			t.Fatalf("serial %v: a commit that delays x's failed check at r left x's forest cached", serial)
		}
		if got, want := p.plan(x).Arrival[r], tz.Arrival.Add(dSmall+dSize); got != want {
			t.Errorf("serial %v: x's fresh forest reaches r at %v, want %v", serial, got, want)
		}
	}
}

func TestPlannerMarksDeadItems(t *testing.T) {
	p := gen.Default()
	p.Machines = gen.IntRange{Min: 5, Max: 5}
	p.RequestsPerMachine = gen.IntRange{Min: 8, Max: 8}
	sc := testnet.Generate(p, 17)
	cfg := Config{Heuristic: PartialPath, Criterion: C4, EU: EUFromLog10(0), Weights: model.Weights1x10x100}
	pl := newPlanner(sc, cfg)
	// Drain the scheduler fully.
	for {
		cands := pl.candidates()
		if len(cands) == 0 {
			break
		}
		bi, _ := selectBest(cands)
		if err := pl.commitHop(cands[bi].item, cands[bi].hop); err != nil {
			t.Fatal(err)
		}
	}
	// Every item must be dead once no candidates remain: either its
	// requests are closed or unsatisfiable.
	for i, dead := range pl.dead {
		if !dead {
			t.Errorf("item %d not marked dead after drain", i)
		}
	}
}
