package core

import (
	"runtime"
	"testing"

	"datastaging/internal/gen"
	"datastaging/internal/model"
	"datastaging/internal/testnet"
)

func assertSameSchedule(t *testing.T, what string, seed int64, pair Pair, got, want *Result) {
	t.Helper()
	if len(got.Transfers) != len(want.Transfers) {
		t.Fatalf("seed %d %v %s: %d vs %d transfers",
			seed, pair, what, len(got.Transfers), len(want.Transfers))
	}
	for i := range got.Transfers {
		if got.Transfers[i] != want.Transfers[i] {
			t.Fatalf("seed %d %v %s: transfer %d differs: %+v vs %+v",
				seed, pair, what, i, got.Transfers[i], want.Transfers[i])
		}
	}
	if len(got.Satisfied) != len(want.Satisfied) {
		t.Fatalf("seed %d %v %s: satisfied %d vs %d",
			seed, pair, what, len(got.Satisfied), len(want.Satisfied))
	}
	for id, at := range want.Satisfied {
		if gat, ok := got.Satisfied[id]; !ok || gat != at {
			t.Fatalf("seed %d %v %s: request %v satisfied at %v, want %v",
				seed, pair, what, id, gat, at)
		}
	}
}

// TestScheduleIndependentOfGOMAXPROCS pins the single-goroutine planner: the
// core count must change neither the schedule nor the work done to reach it.
func TestScheduleIndependentOfGOMAXPROCS(t *testing.T) {
	sc := testnet.Generate(gen.Default(), 7)
	cfg := Config{Heuristic: FullPathOneDest, Criterion: C4, EU: EUFromLog10(2),
		Weights: model.Weights1x10x100}
	run := func(procs int) *Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res, err := Schedule(sc, cfg)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		res.Stats.ReplanWall = 0 // timing-dependent
		return res
	}
	one, four := run(1), run(4)
	assertSameSchedule(t, "GOMAXPROCS 4 vs 1", 7, Pair{cfg.Heuristic, cfg.Criterion}, four, one)
	if four.Stats != one.Stats {
		t.Errorf("stats differ with core count:\n  GOMAXPROCS=1 %+v\n  GOMAXPROCS=4 %+v", one.Stats, four.Stats)
	}
}
