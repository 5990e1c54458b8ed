package dijkstra_test

import (
	"testing"

	"datastaging/internal/dijkstra"
	"datastaging/internal/gen"
	"datastaging/internal/model"
	"datastaging/internal/state"
	"datastaging/internal/testnet"
)

// TestScratchComputeMatchesFresh proves the allocation-lean path is exact:
// recomputing every item through one Scratch with aggressive Plan recycling
// yields forests identical to independent fresh computations, in any order.
func TestScratchComputeMatchesFresh(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		sc := testnet.Generate(gen.Default(), seed)
		st := state.New(sc)
		s := dijkstra.NewScratch()
		var recycled *dijkstra.Plan
		for item := range sc.Items {
			id := model.ItemID(item)
			fresh := dijkstra.Compute(st, id)
			recycled = s.Compute(st, id, recycled)
			assertPlansEqual(t, seed, id, recycled, fresh)
		}
		// Second sweep in reverse order through the same scratch: stale
		// contents from the previous computation must never leak.
		for item := len(sc.Items) - 1; item >= 0; item-- {
			id := model.ItemID(item)
			fresh := dijkstra.Compute(st, id)
			recycled = s.Compute(st, id, recycled)
			assertPlansEqual(t, seed, id, recycled, fresh)
		}
	}
}

func assertPlansEqual(t *testing.T, seed int64, item model.ItemID, got, want *dijkstra.Plan) {
	t.Helper()
	if got.Item != want.Item {
		t.Fatalf("seed %d item %d: plan item %d", seed, item, got.Item)
	}
	if len(got.Arrival) != len(want.Arrival) {
		t.Fatalf("seed %d item %d: %d machines, want %d", seed, item, len(got.Arrival), len(want.Arrival))
	}
	for m := range want.Arrival {
		if got.Arrival[m] != want.Arrival[m] || got.Pred[m] != want.Pred[m] ||
			got.Via[m] != want.Via[m] {
			t.Fatalf("seed %d item %d machine %d: recycled forest differs: "+
				"(%v, %d, %d) vs (%v, %d, %d)", seed, item, m,
				got.Arrival[m], got.Pred[m], got.Via[m],
				want.Arrival[m], want.Pred[m], want.Via[m])
		}
		if want.Via[m] != dijkstra.NoLink &&
			(got.Start[m] != want.Start[m] || got.Dur[m] != want.Dur[m]) {
			t.Fatalf("seed %d item %d machine %d: hop timing differs", seed, item, m)
		}
	}
}

// TestScratchStats pins the observability counters: the first compute on a
// fresh scratch grows, subsequent same-size computes are reuse hits, and
// the heap high-water mark is positive whenever any label was pushed.
func TestScratchStats(t *testing.T) {
	sc := testnet.Generate(gen.Default(), 7)
	st := state.New(sc)
	s := dijkstra.NewScratch()
	var pl *dijkstra.Plan
	const rounds = 5
	for i := 0; i < rounds; i++ {
		pl = s.Compute(st, model.ItemID(i%len(sc.Items)), pl)
	}
	stats := s.Stats()
	if stats.Computes != rounds {
		t.Errorf("Computes = %d, want %d", stats.Computes, rounds)
	}
	if stats.Grows != 1 {
		t.Errorf("Grows = %d, want 1 (machine count is constant)", stats.Grows)
	}
	if stats.ReuseHits() != rounds-1 {
		t.Errorf("ReuseHits = %d, want %d", stats.ReuseHits(), rounds-1)
	}
	if stats.HeapHighWater <= 0 {
		t.Errorf("HeapHighWater = %d, want > 0", stats.HeapHighWater)
	}
	if stats.HeapHighWater > sc.Network.NumMachines()*len(sc.Network.Links) {
		t.Errorf("HeapHighWater = %d is implausibly large", stats.HeapHighWater)
	}
	// Every walk settles at least the item's holders and settles each
	// machine at most once; each settled machine examines its out-links.
	if stats.Pops < rounds || stats.Pops > rounds*sc.Network.NumMachines() {
		t.Errorf("Pops = %d, want in [%d, %d]", stats.Pops, rounds, rounds*sc.Network.NumMachines())
	}
	if stats.Relaxations <= 0 || stats.Relaxations > rounds*len(sc.Network.Links) {
		t.Errorf("Relaxations = %d, want in (0, %d]", stats.Relaxations, rounds*len(sc.Network.Links))
	}

	var agg dijkstra.ScratchStats
	agg.Add(stats)
	agg.Add(dijkstra.ScratchStats{Computes: 2, Grows: 1, HeapHighWater: 1, Pops: 3, Relaxations: 4})
	if agg.Computes != rounds+2 || agg.Grows != 2 || agg.HeapHighWater != stats.HeapHighWater ||
		agg.Pops != stats.Pops+3 || agg.Relaxations != stats.Relaxations+4 {
		t.Errorf("Add aggregated to %+v", agg)
	}
}

// TestFirstHopToMatchesPathTo pins the pred-chain walk against the full
// path materialization across a paper-scale scenario.
func TestFirstHopToMatchesPathTo(t *testing.T) {
	sc := testnet.Generate(gen.Default(), 11)
	st := state.New(sc)
	for item := range sc.Items {
		p := dijkstra.Compute(st, model.ItemID(item))
		for m := range p.Arrival {
			id := model.MachineID(m)
			hops, pok := p.PathTo(id)
			hop, fok := p.FirstHopTo(id)
			wantOK := pok && len(hops) > 0
			if fok != wantOK {
				t.Fatalf("item %d machine %d: FirstHopTo ok=%v, PathTo gives %v", item, m, fok, wantOK)
			}
			if fok && hop != hops[0] {
				t.Fatalf("item %d machine %d: first hop %+v, want %+v", item, m, hop, hops[0])
			}
		}
	}
}
