package core

import (
	"testing"
	"testing/quick"

	"datastaging/internal/gen"
	"datastaging/internal/model"
	"datastaging/internal/obs"
	"datastaging/internal/testnet"
)

func smallParams() gen.Params {
	p := gen.Default()
	p.Machines = gen.IntRange{Min: 5, Max: 7}
	p.RequestsPerMachine = gen.IntRange{Min: 3, Max: 6}
	return p
}

// statsFromTrace re-derives every deterministic Stats counter from the
// emitted event stream. This is the trace/stats equivalence oracle: the
// two are maintained independently (counters inline in the planner, events
// through the tracer), so agreement means the trace is a faithful record
// of the run.
func statsFromTrace(events []obs.Event) Stats {
	var st Stats
	for _, e := range events {
		switch e.Kind {
		case obs.EvIteration:
			st.Iterations++
		case obs.EvForestComputed:
			st.DijkstraRuns++
		case obs.EvForestCacheHit:
			st.CacheHits++
		case obs.EvForestInvalidated:
			if e.Reason == obs.ReasonConflict {
				st.Invalidations++
			}
		case obs.EvTransferBooked:
			st.Commits++
		}
	}
	return st
}

// TestQuickTraceStatsEquivalence: for any generated scenario and any
// heuristic/criterion pair (cached or paranoid), the counters re-derived from the event trace must equal the
// counters the scheduler reports.
func TestQuickTraceStatsEquivalence(t *testing.T) {
	params := smallParams()
	pairs := PairsWithExtensions()
	sweep := []EUWeights{EUUrgencyOnly, EUFromLog10(0), EUFromLog10(2), EUPriorityOnly}

	property := func(seed int64, pairIdx, euIdx uint8, paranoid bool) bool {
		sc := testnet.Generate(params, seed%4096)
		pair := pairs[int(pairIdx)%len(pairs)]
		mem := &obs.MemorySink{}
		cfg := Config{
			Heuristic: pair.Heuristic,
			Criterion: pair.Criterion,
			EU:        sweep[int(euIdx)%len(sweep)],
			Weights:   model.Weights1x10x100,
			Paranoid:  paranoid,
			Obs:       obs.NewTraced(mem),
		}
		res, err := Schedule(sc, cfg)
		if err != nil {
			t.Errorf("seed %d %v: %v", seed, pair, err)
			return false
		}
		got := statsFromTrace(mem.Events())
		want := res.Stats
		want.ReplanWall = 0 // timing-dependent, not part of the oracle
		if got != want {
			t.Errorf("seed %d %v paranoid=%v:\n  trace-derived %+v\n  reported      %+v",
				seed, pair, paranoid, got, want)
			return false
		}
		// The registry must agree with both.
		snap := cfg.Obs.Snapshot()
		if snap.Counters["core.commits_total"] != int64(want.Commits) ||
			snap.Counters["core.dijkstra_runs_total"] != int64(want.DijkstraRuns) ||
			snap.Counters["core.cache_hits_total"] != int64(want.CacheHits) ||
			snap.Counters["core.invalidations_total"] != int64(want.Invalidations) ||
			snap.Counters["core.iterations_total"] != int64(want.Iterations) {
			t.Errorf("seed %d %v: registry counters disagree with Stats: %+v vs %+v",
				seed, pair, snap.Counters, want)
			return false
		}
		// Satisfaction events must match the result's satisfied set.
		n := 0
		for _, e := range mem.Events() {
			if e.Kind == obs.EvRequestSatisfied {
				n++
			}
		}
		if n != len(res.Satisfied) {
			t.Errorf("seed %d %v: %d request_satisfied events, %d satisfied requests",
				seed, pair, n, len(res.Satisfied))
			return false
		}
		return true
	}
	maxCount := 40
	if testing.Short() {
		maxCount = 10
	}
	if err := quick.Check(property, &quick.Config{MaxCount: maxCount}); err != nil {
		t.Fatal(err)
	}
}

// TestObsDisabledIsInert pins the zero-config contract: a nil Obs changes
// nothing about the schedule or the stats.
func TestObsDisabledIsInert(t *testing.T) {
	sc := testnet.Generate(smallParams(), 3)
	cfg := Config{Heuristic: FullPathOneDest, Criterion: C4, EU: EUFromLog10(2), Weights: model.Weights1x10x100}
	plain, err := Schedule(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Obs = obs.NewTraced(&obs.MemorySink{})
	traced, err := Schedule(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Transfers) != len(traced.Transfers) {
		t.Fatalf("observability changed the schedule: %d vs %d transfers",
			len(plain.Transfers), len(traced.Transfers))
	}
	for i := range plain.Transfers {
		if plain.Transfers[i] != traced.Transfers[i] {
			t.Fatalf("transfer %d differs under observation", i)
		}
	}
	p, tr := plain.Stats, traced.Stats
	p.ReplanWall, tr.ReplanWall = 0, 0
	if p != tr {
		t.Fatalf("observability changed the stats: %+v vs %+v", p, tr)
	}
	if plain.Stats.ReplanWall <= 0 {
		t.Error("ReplanWall not accumulated with observability disabled")
	}
}

// TestObsSlotQueryCounters checks the state layer's slot-query counters:
// every run issues slot queries, and in serialized-transfer mode every one
// of them must take the fused intersect-fit fast path (no intersection
// sets are ever materialized).
func TestObsSlotQueryCounters(t *testing.T) {
	sc := testnet.Generate(smallParams(), 9)
	cfg := Config{Heuristic: FullPathOneDest, Criterion: C4, EU: EUFromLog10(2), Weights: model.Weights1x10x100}

	o := obs.New()
	cfg.Obs = o
	if _, err := Schedule(sc, cfg); err != nil {
		t.Fatal(err)
	}
	snap := o.Snapshot()
	queries := snap.Counters["state.slot_query_total"]
	fast := snap.Counters["state.slot_fastpath_total"]
	if queries <= 0 {
		t.Fatal("no slot queries counted")
	}
	if fast < 0 || fast > queries {
		t.Fatalf("fastpath count %d out of range [0, %d]", fast, queries)
	}

	serial := *sc
	serial.SerialTransfers = true
	o2 := obs.New()
	cfg.Obs = o2
	if _, err := Schedule(&serial, cfg); err != nil {
		t.Fatal(err)
	}
	snap2 := o2.Snapshot()
	queries2 := snap2.Counters["state.slot_query_total"]
	fast2 := snap2.Counters["state.slot_fastpath_total"]
	if queries2 <= 0 {
		t.Fatal("no slot queries counted in serialized mode")
	}
	if fast2 != queries2 {
		t.Fatalf("serialized mode: %d of %d slot queries took the fused fast path, want all", fast2, queries2)
	}
}

// TestObsSatisfactionSlack checks the slack histogram sees exactly the
// satisfied requests, with plausible values.
func TestObsSatisfactionSlack(t *testing.T) {
	sc := testnet.Generate(smallParams(), 11)
	o := obs.New()
	cfg := Config{Heuristic: FullPathAllDests, Criterion: C4, EU: EUFromLog10(2),
		Weights: model.Weights1x10x100, Obs: o}
	res, err := Schedule(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := o.Snapshot()
	h := snap.Histograms["core.satisfaction_slack_seconds"]
	if h.Count != int64(len(res.Satisfied)) {
		t.Errorf("slack observations %d != satisfied %d", h.Count, len(res.Satisfied))
	}
	if h.Count > 0 && h.Sum < 0 {
		t.Errorf("negative total slack %v", h.Sum)
	}
	if got := snap.Counters["core.requests_satisfied_total"]; got != int64(len(res.Satisfied)) {
		t.Errorf("requests_satisfied_total = %d, want %d", got, len(res.Satisfied))
	}
	// Scratch metrics flushed at end of run.
	if snap.Counters["dijkstra.computes_total"] <= 0 {
		t.Error("dijkstra.computes_total not flushed")
	}
	for _, name := range []string{"dijkstra.pops_total", "dijkstra.relaxations_total"} {
		if snap.Counters[name] <= 0 {
			t.Errorf("%s not flushed", name)
		}
	}
	if snap.Gauges["dijkstra.heap_high_water"] <= 0 {
		t.Error("dijkstra.heap_high_water not flushed")
	}
	// Replan phase timer must land in the registry and match ReplanWall.
	rh := snap.Histograms["core.replan_seconds"]
	if rh.Count == 0 {
		t.Error("core.replan_seconds histogram empty")
	}
	if want := res.Stats.ReplanWall.Seconds(); rh.Sum < 0.5*want || rh.Sum > 2*want+1e-6 {
		t.Errorf("replan histogram sum %v far from ReplanWall %v", rh.Sum, want)
	}
}
