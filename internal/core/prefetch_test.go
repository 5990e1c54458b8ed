package core

import (
	"runtime"
	"testing"

	"datastaging/internal/gen"
	"datastaging/internal/model"
)

// deterministicStats projects Stats onto the counters that must be
// identical on both prefetch paths (ReplanWall is timing-dependent,
// BatchedRuns and RelaxBatches batching-dependent by design).
func deterministicStats(s Stats) [5]int {
	return [5]int{s.DijkstraRuns, s.CacheHits, s.Invalidations, s.Iterations, s.Commits}
}

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

// TestBatchDisabledMatchesDefault is the planner-level differential oracle
// for the batched relaxation kernel: for every heuristic/criterion pair,
// with and without port serialization, the default history-length dispatch
// and the forced one-by-one path must produce identical schedules and
// identical deterministic work counters. Merged walks must actually run by
// default on these scenarios and never on the forced path, and batched runs
// are a subset of all Dijkstra runs.
func TestBatchDisabledMatchesDefault(t *testing.T) {
	w := model.Weights1x10x100
	for seed := int64(1); seed <= 2; seed++ {
		for _, serialTransfers := range []bool{false, true} {
			// Paper-scale, so every run commits past mergedMinHistory.
			sc := gen.MustGenerate(gen.Default(), seed)
			sc.SerialTransfers = serialTransfers
			for _, pair := range Pairs() {
				cfg := Config{Heuristic: pair.Heuristic, Criterion: pair.Criterion,
					EU: EUFromLog10(1), Weights: w}
				got, err := Schedule(sc, cfg)
				if err != nil {
					t.Fatalf("seed %d %v batched: %v", seed, pair, err)
				}
				want, err := scheduleUnbatched(sc, cfg)
				if err != nil {
					t.Fatalf("seed %d %v unbatched: %v", seed, pair, err)
				}
				assertSameSchedule(t, "batched vs unbatched", seed, pair, got, want)
				if gs, ws := deterministicStats(got.Stats), deterministicStats(want.Stats); gs != ws {
					t.Errorf("seed %d %v: batched stats %+v differ from unbatched %+v",
						seed, pair, gs, ws)
				}
				if s := got.Stats; s.RelaxBatches == 0 || s.BatchedRuns < s.RelaxBatches || s.BatchedRuns > s.DijkstraRuns {
					t.Errorf("seed %d %v: default run's batch counters out of range: %+v", seed, pair, s)
				}
				if s := want.Stats; s.RelaxBatches != 0 || s.BatchedRuns != 0 {
					t.Errorf("seed %d %v: forced one-by-one run recorded batches: %+v", seed, pair, s)
				}
				if got.Stats.ReplanWall <= 0 {
					t.Errorf("seed %d %v: replan wall time not recorded", seed, pair)
				}
			}
		}
	}
}

// TestScheduleIndependentOfGOMAXPROCS pins the single-goroutine planner: the
// core count must change neither the schedule nor the work done to reach it.
func TestScheduleIndependentOfGOMAXPROCS(t *testing.T) {
	sc := gen.MustGenerate(gen.Default(), 7)
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
