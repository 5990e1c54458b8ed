package core

import (
	"testing"

	"datastaging/internal/dijkstra"
	"datastaging/internal/gen"
	"datastaging/internal/model"
	"datastaging/internal/obs"
	"datastaging/internal/report/utilization"
	"datastaging/internal/state"
	"datastaging/internal/testnet"
)

// BenchmarkScheduleWithPlanCache measures the production scheduler: cached
// shortest-path forests invalidated only on resource conflicts.
func BenchmarkScheduleWithPlanCache(b *testing.B) {
	sc := testnet.Generate(gen.Default(), 42)
	cfg := Config{Heuristic: FullPathOneDest, Criterion: C4, EU: EUFromLog10(2), Weights: model.Weights1x10x100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Schedule(sc, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedule measures the production scheduler at its default
// configuration with allocation reporting: the headline trajectory number
// the interval-kernel work regresses against.
func BenchmarkSchedule(b *testing.B) {
	sc := testnet.Generate(gen.Default(), 42)
	cfg := Config{Heuristic: FullPathOneDest, Criterion: C4, EU: EUFromLog10(2), Weights: model.Weights1x10x100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Schedule(sc, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleSerial measures the same run with the §3 future-work
// per-machine port serialization on, where every relax step intersects
// link, send-port, and receive-port availability. This is the workload the
// fused intersect-fit kernel targets.
func BenchmarkScheduleSerial(b *testing.B) {
	sc := testnet.Generate(gen.Default(), 42)
	sc.SerialTransfers = true
	cfg := Config{Heuristic: FullPathOneDest, Criterion: C4, EU: EUFromLog10(2), Weights: model.Weights1x10x100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Schedule(sc, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleParanoidRerun is the ablation: the paper's described
// implementation that re-runs Dijkstra for every item on every iteration.
// Results are identical (see TestPlanCacheMatchesParanoidRerun); this
// benchmark quantifies what the exact plan cache buys.
func BenchmarkScheduleParanoidRerun(b *testing.B) {
	sc := testnet.Generate(gen.Default(), 42)
	cfg := Config{Heuristic: FullPathOneDest, Criterion: C4, EU: EUFromLog10(2), Weights: model.Weights1x10x100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scheduleParanoid(sc, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleObserved measures the fully instrumented scheduler —
// metrics registry plus tracer with a discard sink — against
// BenchmarkScheduleWithPlanCache (the same run with observability
// disabled). The gap is the total price of enabled observability; the
// disabled run must stay within noise of the pre-obs code.
func BenchmarkScheduleObserved(b *testing.B) {
	sc := testnet.Generate(gen.Default(), 42)
	o := obs.NewTraced(obs.Discard)
	cfg := Config{Heuristic: FullPathOneDest, Criterion: C4, EU: EUFromLog10(2),
		Weights: model.Weights1x10x100, Obs: o}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Schedule(sc, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleWithUtilization measures a full scheduling run plus the
// exact utilization profile computed from its committed schedule — the
// marginal price of the forensics report. Compare against
// BenchmarkScheduleWithPlanCache (the same run without the profile).
func BenchmarkScheduleWithUtilization(b *testing.B) {
	sc := testnet.Generate(gen.Default(), 42)
	cfg := Config{Heuristic: FullPathOneDest, Criterion: C4, EU: EUFromLog10(2), Weights: model.Weights1x10x100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Schedule(sc, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if p := utilization.Compute(sc, res.Transfers); p.TotalBusy <= 0 {
			b.Fatal("empty utilization profile")
		}
	}
}

// BenchmarkDijkstraCompute measures one shortest-path forest computation on
// a paper-scale network, without scratch reuse (the cold path).
func BenchmarkDijkstraCompute(b *testing.B) {
	sc := testnet.Generate(gen.Default(), 42)
	st := state.New(sc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dijkstra.Compute(st, model.ItemID(i%len(sc.Items)))
	}
}

// BenchmarkDijkstraComputeScratch measures the steady-state hot path the
// planner actually runs: a held Scratch and a recycled Plan, which together
// eliminate every per-computation allocation.
func BenchmarkDijkstraComputeScratch(b *testing.B) {
	sc := testnet.Generate(gen.Default(), 42)
	st := state.New(sc)
	s := dijkstra.NewScratch()
	var pl *dijkstra.Plan
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl = s.Compute(st, model.ItemID(i%len(sc.Items)), pl)
	}
}

// BenchmarkCandidates measures one candidate-generation pass over a fresh
// planner (all forests computed, first-hop extraction, Drq grouping).
func BenchmarkCandidates(b *testing.B) {
	sc := testnet.Generate(gen.Default(), 42)
	cfg := Config{Heuristic: PartialPath, Criterion: C4, EU: EUFromLog10(2), Weights: model.Weights1x10x100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := newPlanner(sc, cfg)
		b.StartTimer()
		if cands := p.candidates(); len(cands) == 0 {
			b.Fatal("no candidates on a fresh paper-scale scenario")
		}
	}
}

// BenchmarkHeuristics measures a full schedule per heuristic at C4 — the
// execution-time comparison the technical report tabulates.
func BenchmarkHeuristics(b *testing.B) {
	sc := testnet.Generate(gen.Default(), 42)
	for _, h := range []Heuristic{PartialPath, FullPathOneDest, FullPathAllDests} {
		b.Run(h.String(), func(b *testing.B) {
			cfg := Config{Heuristic: h, Criterion: C4, EU: EUFromLog10(2), Weights: model.Weights1x10x100}
			for i := 0; i < b.N; i++ {
				if _, err := Schedule(sc, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCriteria measures cost-criterion overhead at a fixed heuristic.
func BenchmarkCriteria(b *testing.B) {
	sc := testnet.Generate(gen.Default(), 42)
	for _, c := range []Criterion{C1, C2, C3, C4} {
		b.Run(c.String(), func(b *testing.B) {
			cfg := Config{Heuristic: PartialPath, Criterion: c, EU: EUFromLog10(2), Weights: model.Weights1x10x100}
			for i := 0; i < b.N; i++ {
				if _, err := Schedule(sc, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
