package dijkstra_test

import (
	"testing"

	"datastaging/internal/dijkstra"
	"datastaging/internal/gen"
	"datastaging/internal/model"
	"datastaging/internal/state"
	"datastaging/internal/testnet"
)

// benchSetup returns a paper-scale state and a (plan, destination) pair
// with a multi-hop path, so FirstHopTo has a chain to walk.
func benchSetup(tb testing.TB) (*state.State, *dijkstra.Plan, []model.MachineID) {
	tb.Helper()
	sc := testnet.Generate(gen.Default(), 42)
	st := state.New(sc)
	for item := range sc.Items {
		p := dijkstra.Compute(st, model.ItemID(item))
		var dests []model.MachineID
		for m := range p.Arrival {
			id := model.MachineID(m)
			if p.Reachable(id) && !p.IsRoot(id) {
				dests = append(dests, id)
			}
		}
		if len(dests) > 0 {
			return st, p, dests
		}
	}
	tb.Fatal("no item with a reachable non-root destination")
	return nil, nil, nil
}

// BenchmarkDijkstraComputeSerial measures one forest computation with
// serialized transfers on: every edge relaxation runs the fused three-way
// intersect-fit slot query (link ∧ send port ∧ receive port), the direct
// consumer of simtime.EarliestFitN.
func BenchmarkDijkstraComputeSerial(b *testing.B) {
	sc := testnet.Generate(gen.Default(), 42)
	sc.SerialTransfers = true
	st := state.New(sc)
	s := dijkstra.NewScratch()
	var pl *dijkstra.Plan
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl = s.Compute(st, model.ItemID(i%len(sc.Items)), pl)
	}
}

// BenchmarkFirstHopTo measures first-hop extraction, the per-candidate
// query candidates() issues for every open request on every iteration.
// It walks the predecessor chain directly and must not allocate (the old
// implementation materialized and reversed the full path per call).
func BenchmarkFirstHopTo(b *testing.B) {
	_, p, dests := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := p.FirstHopTo(dests[i%len(dests)]); !ok {
			b.Fatal("destination became unreachable")
		}
	}
}

// BenchmarkPathTo measures full path materialization (used only when a
// path is actually committed, not per candidate).
func BenchmarkPathTo(b *testing.B) {
	_, p, dests := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := p.PathTo(dests[i%len(dests)]); !ok {
			b.Fatal("destination became unreachable")
		}
	}
}

// TestFirstHopToDoesNotAllocate pins the allocation contract.
func TestFirstHopToDoesNotAllocate(t *testing.T) {
	_, p, dests := benchSetup(t)
	allocs := testing.AllocsPerRun(100, func() {
		for _, d := range dests {
			p.FirstHopTo(d)
		}
	})
	if allocs != 0 {
		t.Errorf("FirstHopTo allocates %.1f times per sweep, want 0", allocs)
	}
}
