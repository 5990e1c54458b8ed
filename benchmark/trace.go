package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// parseMetrics reads a Prometheus text exposition into sample name -> value.
// A labelled sample keeps its label set in the key, as written
// (`serve_batch_size_bucket{le="4"}`); comment lines are skipped.
func parseMetrics(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// auditRecord is the part of a /v1/audit line the budget needs.
type auditRecord struct {
	Kind     string `json:"kind"`
	Name     string `json:"name"`
	Timeline []struct {
		Stage string  `json:"stage"`
		WallS float64 `json:"wallS"`
	} `json:"timeline"`
}

func parseAudit(jsonl []byte) ([]auditRecord, error) {
	var out []auditRecord
	dec := json.NewDecoder(bytes.NewReader(jsonl))
	for {
		var rec auditRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("audit: record %d: %w", len(out), err)
		}
		out = append(out, rec)
	}
}

// hops are the lifecycle stages whose gaps are the serve layers, in order.
// The gap ending at each stage is charged to the layer beside it.
var hops = []struct{ stage, layer string }{
	{"epoch_start", "serve.queue_wait_ms"}, // enqueued -> epoch_start
	{"planned", "serve.plan_ms"},           // epoch_start -> planned
	{"decided", "serve.settle_ms"},         // planned -> decided (includes diagnosis)
	{"settled", "serve.publish_ms"},        // decided -> settled
}

// layersMS splits one decision record's received->settled interval into the
// serve layers (ms) and returns their sum. ok is false for a record without
// the full wall-clock timeline.
func (r *auditRecord) layersMS() (layers [4]float64, total float64, ok bool) {
	at := make(map[string]float64, len(r.Timeline))
	for _, h := range r.Timeline {
		at[h.Stage] = h.WallS * 1000
	}
	prev := 0.0 // received and enqueued are the zero of the record's wall clock
	for i, h := range hops {
		t, found := at[h.stage]
		if !found || t < prev {
			return layers, 0, false
		}
		layers[i] = t - prev
		prev = t
	}
	return layers, prev, true
}

// budget is the per-layer latency budget of one traced run: where the mean
// decision latency went.
type budget struct {
	meanDecisionMS float64
	layerMS        [4]float64 // means, in hops order
	httpOverheadMS float64    // mean of client latency - (received -> settled)
	queueWaitP99MS float64
	residualShare  float64
	answered       int // submissions that got a verdict
	joined         int // of those, matched to an audit decision record
	records        int
}

// joinAudit joins client spans to audit decision records by submission name
// and averages the layers over every answered submission. A cross-shard
// submission has one record per shard leg, all overlapping in time; the
// longest leg spans the offer round and stands for the submission (its
// queue wait is then the round). The residual is the share of the summed
// decision latency the join cannot explain: submissions with no record, and
// records claiming more server time than the client saw in total.
func joinAudit(spans []span, records []auditRecord) budget {
	type best struct {
		layers [4]float64
		total  float64
	}
	byName := make(map[string]best)
	b := budget{}
	for i := range records {
		rec := &records[i]
		if rec.Kind != "decision" {
			continue
		}
		b.records++
		layers, total, ok := rec.layersMS()
		if !ok {
			continue
		}
		if cur, seen := byName[rec.Name]; !seen || total > cur.total {
			byName[rec.Name] = best{layers, total}
		}
	}
	var sumLatency, sumOverhead, unexplained float64
	var queueWaits []float64
	n := 0
	for i := range spans {
		if spans[i].Status != http.StatusAccepted {
			continue
		}
		n++
		lat := spans[i].latencyMS()
		sumLatency += lat
		rec, ok := byName[spans[i].Name]
		if !ok {
			unexplained += lat
			continue
		}
		b.joined++
		for k := range rec.layers {
			b.layerMS[k] += rec.layers[k]
		}
		queueWaits = append(queueWaits, rec.layers[0])
		if over := lat - rec.total; over >= 0 {
			sumOverhead += over
		} else {
			unexplained += -over
		}
	}
	b.answered = n
	if n == 0 {
		return b
	}
	for k := range b.layerMS {
		b.layerMS[k] /= float64(n)
	}
	b.meanDecisionMS = sumLatency / float64(n)
	b.httpOverheadMS = sumOverhead / float64(n)
	b.queueWaitP99MS = percentile(sortedCopy(queueWaits), 99)
	b.residualShare = ratio(unexplained, sumLatency)
	return b
}

// table renders the budget: layer, mean ms, share of the decision latency.
func (b budget) table(workload string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "budget %s: mean decision latency %.3f ms over %d submissions (%d joined to %d audit records)\n",
		workload, b.meanDecisionMS, b.answered, b.joined, b.records)
	row := func(name string, ms float64) {
		fmt.Fprintf(&sb, "  %-24s %9.3f ms  %5.1f%%\n", name, ms, 100*ratio(ms, b.meanDecisionMS))
	}
	row("wire.http_overhead_ms", b.httpOverheadMS)
	for i, h := range hops {
		row(h.layer, b.layerMS[i])
	}
	fmt.Fprintf(&sb, "  %-24s %9.3f ms  %5.1f%%\n", "unexplained",
		b.residualShare*b.meanDecisionMS, 100*b.residualShare)
	return sb.String()
}

// maxResidualShare is the asserted ceiling on serve.budget_residual_share.
const maxResidualShare = 0.05

// perLayer computes the traced run's numbers. base is the same workload
// un-audited (for the audit overhead); single is fed_single un-audited, set
// only for fed_sharded (for the sharding ratios).
func (r *onlineRun) perLayer(base, single *onlineRun) (map[string]float64, budget, error) {
	m, err := parseMetrics(r.metricsText)
	if err != nil {
		return nil, budget{}, err
	}
	records, err := parseAudit(r.auditJSONL)
	if err != nil {
		return nil, budget{}, err
	}
	b := joinAudit(r.spans, records)
	h := health(r.spans)
	n := float64(len(r.spans))
	v := map[string]float64{
		"loadgen.late_p99_ms":      h.lateP99MS,
		"loadgen.host_steal_share": r.stealShr,
		"loadgen.inflight_max":     float64(h.inflightMax),
		"loadgen.backlog_end":      h.backlogEnd,

		"wire.http_overhead_ms": b.httpOverheadMS,
		"wire.schedule_get_ms":  r.scheduleMS,
		"wire.schedule_bytes":   float64(r.scheduleLen),

		"serve.queue_wait_ms":         b.layerMS[0],
		"serve.plan_ms":               b.layerMS[1],
		"serve.settle_ms":             b.layerMS[2],
		"serve.publish_ms":            b.layerMS[3],
		"serve.queue_wait_p99_ms":     b.queueWaitP99MS,
		"serve.budget_residual_share": b.residualShare,
		"serve.epochs":                m["serve_epochs_total"],
		"serve.batch_size_mean":       ratio(m["serve_batch_size_sum"], m["serve_batch_size_count"]),
		"serve.epoch_busy_share":      ratio(m["serve_epoch_seconds_sum"], r.elapsedS),
		"serve.epochs_full":           m["serve_epochs_full_total"],
		"serve.backpressure_total":    m["serve_rejected_backpressure_total"],

		"dynamic.replans_incremental": m["dynamic_replans_total"] - m["dynamic_replans_full_total"],
		"dynamic.replans_full":        m["dynamic_replans_full_total"],
		"dynamic.replayed_transfers":  m["dynamic_replayed_transfers_total"],
		"dynamic.aborted_transfers":   m["dynamic_aborted_transfers_total"],

		"core.replan_busy_share":     ratio(m["core_replan_seconds_sum"], r.elapsedS),
		"core.dijkstra_runs_per_req": m["core_dijkstra_runs_total"] / n,
		"core.forest_hit_ratio":      ratio(m["core_cache_hits_total"], m["core_cache_hits_total"]+m["core_dijkstra_runs_total"]),
		"core.invalidations_per_req": m["core_invalidations_total"] / n,
		"core.cost_evals_per_req":    m["core_cost_evaluations_total"] / n,
		"core.commits_per_req":       m["core_commits_total"] / n,

		"dijkstra.computes_per_req":    m["dijkstra_computes_total"] / n,
		"dijkstra.scratch_reuse_ratio": ratio(m["dijkstra_scratch_reuse_hits_total"], m["dijkstra_computes_total"]),
		"dijkstra.heap_high_water":     m["dijkstra_heap_high_water"],

		"state.slot_queries_per_req": m["state_slot_query_total"] / n,
		"state.slot_fastpath_ratio":  ratio(m["state_slot_fastpath_total"], m["state_slot_query_total"]),

		"explain.diagnoses_per_req": float64(r.rejected) / n,
		"validator.validate_ms":     r.validateMS,
		"gen.generate_ms":           r.genMS,

		"shard.local_total":          m["shard_admitted_total"],
		"shard.cross_total":          m["shard_crossshard_total"],
		"shard.offer_rollback_ratio": ratio(m["shard_offer_rollbacks_total"], m["shard_crossshard_total"]),

		"obs.audit_overhead_share": ratio(r.cpuS-base.cpuS, base.cpuS),
		"obs.audit_records":        float64(len(records)),
		"obs.audit_bytes":          float64(len(r.auditJSONL)),
	}
	var submitBytes, verdictBytes, local, cross []float64
	for i := range r.spans {
		sp := &r.spans[i]
		if sp.Status != http.StatusAccepted {
			continue
		}
		submitBytes = append(submitBytes, float64(sp.SubmitBytes))
		verdictBytes = append(verdictBytes, float64(len(sp.body)))
		if sp.Cross {
			cross = append(cross, sp.latencyMS())
		} else {
			local = append(local, sp.latencyMS())
		}
	}
	lat, _ := r.latencies()
	v["loadgen.decision_p99_ms"] = percentile(lat, 99)
	v["wire.submit_body_bytes"] = mean(submitBytes)
	v["wire.verdict_body_bytes"] = mean(verdictBytes)
	if r.workload == wlFedShrd {
		v["shard.local_p50_ms"] = median(local)
		v["shard.cross_p50_ms"] = median(cross)
		v["shard.value_ratio"] = ratio(r.value, single.value)
		v["shard.cpu_ratio"] = ratio(r.cpuS, single.cpuS)
	}
	if r.scenario != nil {
		pr := newProber()
		sat := satisfiedBy(r.scenario, r.schedule.Transfers)
		pr.kernels(r.scenario, r.schedule.Transfers, unsatisfied(r.scenario, sat))
		for k, x := range pr.means() {
			v[k] = x
		}
	}
	return v, b, nil
}
