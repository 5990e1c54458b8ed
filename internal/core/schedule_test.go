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

func allHeuristicConfigs(w model.Weights) []Config {
	var out []Config
	for _, pr := range Pairs() {
		out = append(out, Config{
			Heuristic: pr.Heuristic,
			Criterion: pr.Criterion,
			EU:        EUFromLog10(0),
			Weights:   w,
		})
	}
	return out
}

func TestScheduleLineAllPairs(t *testing.T) {
	sc := testnet.Line(4, 1024, 8000, time.Hour)
	for _, cfg := range allHeuristicConfigs(model.Weights1x10x100) {
		res, err := Schedule(sc, cfg)
		if err != nil {
			t.Fatalf("%v/%v: %v", cfg.Heuristic, cfg.Criterion, err)
		}
		if len(res.Satisfied) != 1 {
			t.Errorf("%v/%v: satisfied %d requests, want 1", cfg.Heuristic, cfg.Criterion, len(res.Satisfied))
		}
		if len(res.Transfers) != 3 {
			t.Errorf("%v/%v: %d transfers, want 3", cfg.Heuristic, cfg.Criterion, len(res.Transfers))
		}
		if got := res.WeightedValue(sc, cfg.Weights); got != 100 {
			t.Errorf("%v/%v: weighted value %v, want 100", cfg.Heuristic, cfg.Criterion, got)
		}
	}
}

func TestScheduleRejectsBadConfig(t *testing.T) {
	sc := testnet.Line(2, 1024, 8000, time.Hour)
	if _, err := Schedule(sc, Config{}); err == nil {
		t.Error("zero config should be rejected")
	}
	bad := Config{Heuristic: FullPathAllDests, Criterion: C1, EU: EUFromLog10(0), Weights: model.Weights1x5x10}
	if _, err := Schedule(sc, bad); err == nil {
		t.Error("excluded pairing should be rejected")
	}
}

// contended builds two items racing for one narrow link 0→1: the link
// window only fits one transfer before both deadlines. The high-priority
// item must win under a priority-respecting configuration.
func contended() (*scenario.Scenario, model.ItemID, model.ItemID) {
	b := testnet.NewBuilder()
	ms := b.Machines(2, 1<<30)
	// 1 KB at 8 kbit/s = 1.024 s per transfer; deadline 2 s fits only the
	// first transfer on the serial link.
	b.Link(ms[0], ms[1], 0, 24*time.Hour, 8000)
	b.Link(ms[1], ms[0], 0, 24*time.Hour, 8000)
	low := b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[1], 2*time.Second, model.Low)})
	high := b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[1], 2*time.Second, model.High)})
	return b.Build("contended"), low, high
}

func TestScheduleHighPriorityWinsContention(t *testing.T) {
	sc, low, high := contended()
	for _, h := range []Heuristic{PartialPath, FullPathOneDest, FullPathAllDests} {
		cfg := Config{Heuristic: h, Criterion: C4, EU: EUPriorityOnly, Weights: model.Weights1x10x100}
		res, err := Schedule(sc, cfg)
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		if !resSatisfied(res, high, 0) {
			t.Errorf("%v: high-priority request should be satisfied", h)
		}
		if resSatisfied(res, low, 0) {
			t.Errorf("%v: low-priority request cannot also fit", h)
		}
	}
}

func TestScheduleUrgencyOnlyPrefersTighterDeadline(t *testing.T) {
	b := testnet.NewBuilder()
	ms := b.Machines(2, 1<<30)
	b.Link(ms[0], ms[1], 0, 24*time.Hour, 8000)
	b.Link(ms[1], ms[0], 0, 24*time.Hour, 8000)
	// Low priority but tight deadline vs high priority with slack: with
	// urgency-only weights the tight one goes first; both still fit? No —
	// deadline 2s only fits the first transfer.
	tight := b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[1], 2*time.Second, model.Low)})
	slack := b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[1], 2*time.Second+60*time.Millisecond, model.High)})
	sc := b.Build("urgency")

	cfg := Config{Heuristic: PartialPath, Criterion: C1, EU: EUUrgencyOnly, Weights: model.Weights1x10x100}
	res, err := Schedule(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !resSatisfied(res, tight, 0) {
		t.Error("urgency-only: tight-deadline request should be scheduled first and satisfied")
	}
	_ = slack // the slack request misses: second slot arrives at 2.048s > 2.06s? It fits barely — don't assert.
}

func resSatisfied(r *Result, item model.ItemID, index int) bool {
	_, ok := r.Satisfied[model.RequestID{Item: item, Index: index}]
	return ok
}

func TestFullAllSatisfiesMultipleDestinationsInOneIteration(t *testing.T) {
	// Star: source 0 → hub 1 → leaves 2,3,4; all three leaves request the
	// item. full_all must schedule the whole tree in a single iteration.
	b := testnet.NewBuilder()
	ms := b.Machines(5, 1<<30)
	day := 24 * time.Hour
	b.Link(ms[0], ms[1], 0, day, 80000)
	for _, leaf := range []model.MachineID{ms[2], ms[3], ms[4]} {
		b.Link(ms[1], leaf, 0, day, 80000)
		b.Link(leaf, ms[0], 0, day, 80000)
	}
	item := b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{
			testnet.Req(ms[2], time.Hour, model.High),
			testnet.Req(ms[3], time.Hour, model.Medium),
			testnet.Req(ms[4], time.Hour, model.Low),
		})
	sc := b.Build("star")

	cfg := Config{Heuristic: FullPathAllDests, Criterion: C4, EU: EUFromLog10(0), Weights: model.Weights1x10x100}
	res, err := Schedule(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Satisfied) != 3 {
		t.Fatalf("satisfied %d, want 3", len(res.Satisfied))
	}
	if res.Stats.Iterations != 1 {
		t.Errorf("full_all iterations: got %d, want 1", res.Stats.Iterations)
	}
	// Tree has 4 edges: 0→1 shared, then 1→{2,3,4}.
	if len(res.Transfers) != 4 {
		t.Errorf("transfers: got %d, want 4", len(res.Transfers))
	}
	_ = item

	// full_one needs one iteration per destination and re-plans between
	// them, but the shared hop is only committed once.
	cfgOne := cfg
	cfgOne.Heuristic = FullPathOneDest
	resOne, err := Schedule(sc, cfgOne)
	if err != nil {
		t.Fatal(err)
	}
	if len(resOne.Satisfied) != 3 || len(resOne.Transfers) != 4 {
		t.Errorf("full_one: satisfied %d transfers %d, want 3 and 4",
			len(resOne.Satisfied), len(resOne.Transfers))
	}
	if resOne.Stats.Iterations != 3 {
		t.Errorf("full_one iterations: got %d, want 3", resOne.Stats.Iterations)
	}
	if res.Stats.DijkstraRuns >= resOne.Stats.DijkstraRuns {
		t.Errorf("full_all should run Dijkstra less than full_one: %d vs %d",
			res.Stats.DijkstraRuns, resOne.Stats.DijkstraRuns)
	}
}

func TestScheduleOversubscribedGenerated(t *testing.T) {
	// A generated BADD-like case: sanity-check every pair end to end.
	p := gen.Default()
	p.Machines = gen.IntRange{Min: 6, Max: 6}
	p.RequestsPerMachine = gen.IntRange{Min: 8, Max: 8}
	sc := testnet.Generate(p, 11)
	upper := sc.TotalWeight(model.Weights1x10x100)

	for _, cfg := range allHeuristicConfigs(model.Weights1x10x100) {
		res, err := Schedule(sc, cfg)
		if err != nil {
			t.Fatalf("%v/%v: %v", cfg.Heuristic, cfg.Criterion, err)
		}
		got := res.WeightedValue(sc, cfg.Weights)
		if got <= 0 {
			t.Errorf("%v/%v: weighted value %v, want > 0", cfg.Heuristic, cfg.Criterion, got)
		}
		if got > upper {
			t.Errorf("%v/%v: weighted value %v exceeds upper bound %v", cfg.Heuristic, cfg.Criterion, got, upper)
		}
		if res.Stats.CacheHits == 0 {
			t.Errorf("%v/%v: plan cache never hit", cfg.Heuristic, cfg.Criterion)
		}
	}
}

// TestPlannerOnContinuesExisting: a planner built over a state with
// committed transfers extends that schedule instead of starting over.
func TestPlannerOnContinuesExisting(t *testing.T) {
	sc := testnet.Line(4, 1024, 8000, time.Hour)
	cfg := Config{Heuristic: PartialPath, Criterion: C4, EU: EUFromLog10(0), Weights: model.Weights1x10x100}
	st := state.New(sc)
	// Pre-commit the first hop by hand; the planner must finish the job.
	if _, err := st.Commit(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	pl, err := NewPlannerOn(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Epoch(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Satisfied) != 1 {
		t.Errorf("satisfied: got %d", len(res.Satisfied))
	}
	if len(res.Transfers) != 3 {
		t.Errorf("transfers: got %d, want 3 (1 pre-committed + 2 scheduled)", len(res.Transfers))
	}
	if res.Transfers[0].Link != 0 {
		t.Error("pre-committed transfer missing from the result")
	}
	if _, err := NewPlannerOn(st, Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestC5CompetitiveWithC3AndC4 is the empirical regression for the C5
// extension: on a handful of paper-scale cases its aggregate value stays
// within a few percent of the best paper criteria (in the committed 10-seed
// probe it slightly beat both).
func TestC5CompetitiveWithC3AndC4(t *testing.T) {
	p := gen.Default()
	w := model.Weights1x10x100
	var c3Sum, c4Sum, c5Sum float64
	for seed := int64(1); seed <= 4; seed++ {
		sc := testnet.Generate(p, seed)
		run := func(c Criterion, eu EUWeights) float64 {
			res, err := Schedule(sc, Config{Heuristic: FullPathOneDest, Criterion: c, EU: eu, Weights: w})
			if err != nil {
				t.Fatal(err)
			}
			return res.WeightedValue(sc, w)
		}
		c3Sum += run(C3, EUFromLog10(0))
		c4Sum += run(C4, EUFromLog10(2))
		c5Sum += run(C5, EUFromLog10(0))
	}
	if c5Sum < 0.95*c3Sum {
		t.Errorf("C5 (%v) far below C3 (%v)", c5Sum, c3Sum)
	}
	if c5Sum < 0.95*c4Sum {
		t.Errorf("C5 (%v) far below C4 at its best ratio (%v)", c5Sum, c4Sum)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	sc := testnet.Generate(func() gen.Params {
		p := gen.Default()
		p.Machines = gen.IntRange{Min: 5, Max: 5}
		p.RequestsPerMachine = gen.IntRange{Min: 6, Max: 6}
		return p
	}(), 3)
	cfg := Config{Heuristic: PartialPath, Criterion: C4, EU: EUFromLog10(1), Weights: model.Weights1x10x100}
	a, err := Schedule(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Schedule(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Transfers) != len(b.Transfers) {
		t.Fatalf("non-deterministic transfer count: %d vs %d", len(a.Transfers), len(b.Transfers))
	}
	for i := range a.Transfers {
		if a.Transfers[i] != b.Transfers[i] {
			t.Fatalf("transfer %d differs between identical runs", i)
		}
	}
}
