package core

import (
	"testing"
	"time"

	"datastaging/internal/model"
	"datastaging/internal/simtime"
	"datastaging/internal/state"
	"datastaging/internal/testnet"
)

// TestSteadyEpochAllocs gates the admission fast path end to end: once the
// planner has drained its backlog, advancing the floor and re-running the
// heuristic loop must not touch the heap beyond the one Result the API
// returns. Everything else — candidate groups, open-request sets, plan
// slabs, the prefetch queue — lives in recycled scratch, and a regression
// here is exactly the kind of slow leak a wall-time benchmark only shows
// after the fact.
func TestSteadyEpochAllocs(t *testing.T) {
	sc := testnet.Line(6, 1<<20, testnet.KBPS(1000), time.Hour)
	st := state.New(sc)
	cfg := Config{
		Heuristic: FullPathAllDests,
		Criterion: C4,
		EU:        EUFromLog10(0),
		Weights:   model.Weights1x10x100,
	}
	pp, err := NewPlannerOn(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Drain the backlog so later epochs are pure steady state.
	if _, err := pp.Epoch(simtime.At(0)); err != nil {
		t.Fatal(err)
	}
	at := simtime.At(time.Hour)
	if _, err := pp.Epoch(at); err != nil {
		t.Fatal(err)
	}
	const budget = 1 // the returned *Result itself
	if a := testing.AllocsPerRun(50, func() {
		at = at.Add(time.Second)
		if _, err := pp.Epoch(at); err != nil {
			t.Fatal(err)
		}
	}); a > budget {
		t.Errorf("steady-state Epoch allocates %.1f per call, want <= %d", a, budget)
	}
}
