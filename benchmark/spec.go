package main

// metricSpec names one metric the benchmark prints. Bound is the share of
// the parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadSpec names one workload and records why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// The four workloads. BENCHMARK.json repeats this table; TestBenchmarkJSON
// keeps the two in step.
const (
	wlOffline = "offline_paper"
	wlOversub = "paper_oversub"
	wlFedOne  = "fed_single"
	wlFedShrd = "fed_sharded"
)

var workloads = []workloadSpec{
	{wlOffline, "closed loop of datastaging.Schedule over paper section 5.3 scenarios x 3 heuristics: all time in core/dijkstra/state/simtime/resource, none in serve/shard/wire"},
	{wlOversub, "open-loop Poisson 80/s on one oversubscribed paper network: multi-destination planning, capacity-blocked replans and explain diagnosis of the 30-50% of requests rejected dominate"},
	{wlFedOne, "open-loop Poisson 300/s on the 40-machine fed4x10 network, all admitted and epochs cheap: HTTP/JSON, MaxWait batching and snapshot publish over a growing world dominate"},
	{wlFedShrd, "the byte-identical fed_single stream through stagesvc -shard-map (router, cross-shard offer/commit, cut-link ledger): same traffic, the other service path"},
}

// sloMS is the decision-latency limit within_slo_share is measured against.
const sloMS = 250.0

// endToEnd is what a user of the system sees. Every workload reports every
// metric: on the online workloads a "decision" is one submission timed from
// its intended send instant to the verdict body fully read and a "req" is
// one submission; on offline_paper a decision is one datastaging.Schedule
// call and a "req" is one request of the scheduled scenario.
var endToEnd = []metricSpec{
	{Name: "decision_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "decision_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "within_slo_share", Unit: "share", Better: "higher", Bound: 0.01},
	{Name: "value_efficiency", Unit: "share", Better: "higher", Bound: 0.10},
	{Name: "cpu_ms_per_req", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer is the traced run's output, prefix = module. A metric whose layer
// a workload never enters reads 0 there.
var perLayer = []metricSpec{
	{Name: "loadgen.decision_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.host_steal_share", Unit: "share", Better: "lower"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.inflight_max", Unit: "count", Better: "lower"},
	{Name: "loadgen.backlog_end", Unit: "count", Better: "lower"},

	{Name: "wire.http_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.submit_body_bytes", Unit: "bytes", Better: "lower"},
	{Name: "wire.verdict_body_bytes", Unit: "bytes", Better: "lower"},
	{Name: "wire.schedule_get_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.schedule_bytes", Unit: "bytes", Better: "lower"},

	{Name: "serve.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.settle_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.publish_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.epochs", Unit: "count", Better: "lower"},
	{Name: "serve.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "serve.epoch_busy_share", Unit: "share", Better: "lower"},
	{Name: "serve.epochs_full", Unit: "count", Better: "lower"},
	{Name: "serve.backpressure_total", Unit: "count", Better: "lower"},
	{Name: "serve.budget_residual_share", Unit: "share", Better: "lower"},

	{Name: "dynamic.replans_incremental", Unit: "count", Better: "higher"},
	{Name: "dynamic.replans_full", Unit: "count", Better: "lower"},
	{Name: "dynamic.replayed_transfers", Unit: "count", Better: "lower"},
	{Name: "dynamic.aborted_transfers", Unit: "count", Better: "lower"},

	{Name: "core.replan_busy_share", Unit: "share", Better: "lower"},
	{Name: "core.dijkstra_runs_per_req", Unit: "1/req", Better: "lower"},
	{Name: "core.forest_hit_ratio", Unit: "share", Better: "higher"},
	{Name: "core.invalidations_per_req", Unit: "1/req", Better: "lower"},
	{Name: "core.cost_evals_per_req", Unit: "1/req", Better: "lower"},
	{Name: "core.commits_per_req", Unit: "1/req", Better: "lower"},
	{Name: "core.schedule_ms.partial", Unit: "ms", Better: "lower"},
	{Name: "core.schedule_ms.full_one", Unit: "ms", Better: "lower"},
	{Name: "core.schedule_ms.full_all", Unit: "ms", Better: "lower"},
	{Name: "core.dijkstra_runs_per_schedule", Unit: "count", Better: "lower"},

	{Name: "dijkstra.computes_per_req", Unit: "1/req", Better: "lower"},
	{Name: "dijkstra.scratch_reuse_ratio", Unit: "share", Better: "higher"},
	{Name: "dijkstra.heap_high_water", Unit: "count", Better: "lower"},
	{Name: "dijkstra.compute_us", Unit: "us", Better: "lower"},

	{Name: "state.slot_queries_per_req", Unit: "1/req", Better: "lower"},
	{Name: "state.slot_fastpath_ratio", Unit: "share", Better: "higher"},
	{Name: "state.slot_query_ns", Unit: "ns", Better: "lower"},
	{Name: "simtime.earliest_fit_ns", Unit: "ns", Better: "lower"},
	{Name: "resource.min_available_ns", Unit: "ns", Better: "lower"},

	{Name: "explain.diagnose_us", Unit: "us", Better: "lower"},
	{Name: "explain.diagnoses_per_req", Unit: "1/req", Better: "lower"},
	{Name: "validator.validate_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.generate_ms", Unit: "ms", Better: "lower"},

	{Name: "shard.local_total", Unit: "count", Better: "higher"},
	{Name: "shard.cross_total", Unit: "count", Better: "lower"},
	{Name: "shard.offer_rollback_ratio", Unit: "share", Better: "lower"},
	{Name: "shard.local_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.cross_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.value_ratio", Unit: "share", Better: "higher"},
	{Name: "shard.cpu_ratio", Unit: "share", Better: "lower"},

	{Name: "obs.audit_overhead_share", Unit: "share", Better: "lower"},
	{Name: "obs.audit_records", Unit: "count", Better: "lower"},
	{Name: "obs.audit_bytes", Unit: "bytes", Better: "lower"},
}

// metricValue is one reported number in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report renders a metric map against a spec list: every listed metric is
// present (0 when the run produced none), nothing else is.
func report(specs []metricSpec, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		out[s.Name] = metricValue{Value: values[s.Name], Unit: s.Unit}
	}
	return out
}
