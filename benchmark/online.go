package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"datastaging"
)

// The verdict and schedule documents, again the benchmark's own structs.

type requestVerdict struct {
	Machine    int    `json:"machine"`
	Status     string `json:"status"`
	Deadline   int64  `json:"deadline"`
	Completion int64  `json:"completion"`
	Reason     string `json:"reason"`
}

type ticketView struct {
	ID       string           `json:"id"`
	Status   string           `json:"status"`
	Item     int              `json:"item"`
	Requests []requestVerdict `json:"requests"`
}

type scheduleView struct {
	Items         int                    `json:"items"`
	TotalRequests int                    `json:"totalRequests"`
	Satisfied     int                    `json:"satisfied"`
	WeightedValue float64                `json:"weightedValue"`
	Transfers     []datastaging.Transfer `json:"transfers"`
}

type infoView struct {
	Now int64 `json:"now"`
}

// weights is stagesvc's default -weights, the paper's 1,10,100 scheme.
var weights = datastaging.Weights1x10x100

// setupProbes is how many extra start/stop cycles a run makes to sample
// setup_s, half before the measured service and half after it: on the shared
// reference VM a start takes 20 ms or 30 ms for seconds at a time, and
// probes 20 s apart rarely all land in one such spell. With the measured
// service's own start there are seventeen samples.
const setupProbes = 16

// setupWarmup is how long each half first starts and stops the service
// without recording: after a few idle seconds the VM's next 4-20 process
// starts take 40-50% longer than the ones that follow.
const setupWarmup = time.Second

// onlineRun is everything one open-loop run observed.
type onlineRun struct {
	workload string
	audited  bool
	spans    []span
	elapsedS float64 // run start -> last response
	cpuS     float64 // service CPU over the same interval
	rssMB    float64
	stealShr float64 // machine-wide CPU steal over the same interval
	setupS   []float64
	genMS    float64

	// Collected before SIGTERM.
	metricsText string
	auditJSONL  []byte
	schedule    scheduleView
	scheduleMS  float64
	scheduleLen int

	// Output check.
	scenario   *datastaging.Scenario // rebuilt from the outside
	violations []string
	value      float64        // validated weighted value of the final schedule
	upper      float64        // UpperBound of everything offered
	requests   int            // requests of the answered submissions
	rejected   int            // of those, verdicts other than "admitted"
	ticketsRej int            // answered submissions with no admitted request
	reasons    map[string]int // rejected requests by the service's stated reason
	validateMS float64
}

// onlineInputs is what a workload feeds the service: generated from the
// seed alone.
type onlineInputs struct {
	net      *network
	arrivals []arrival
	sharded  bool
}

// The networks are fixed; the seed varies the traffic. Across generated
// networks the same traffic is rejected anywhere from 4% to 25% (paper) and
// 0% to 2.8% (fed4x10), which moves every metric by more than a code change
// would. Paper network 3 is the most oversubscribed of the first eight. On
// fed4x10 network 4 the single engine admits everything, so epochs stay
// cheap; on networks 1-3 a structural 1-3% of requests is rejected, each
// rejected request is re-planned in every later epoch, and cpu_ms_per_req
// follows the rejection count (0.45-0.9 ms across seeds) instead of the wire
// and batching layers the workload is there to stress.
const (
	oversubNetSeed = 3
	fedNetSeed     = 4
)

func makeInputs(workload string, seed int64, seconds float64) (*onlineInputs, error) {
	// Traffic and topology draw from separate streams so fed_single and
	// fed_sharded (same seed) share both, byte for byte.
	rng := rand.New(rand.NewSource(seed))
	in := &onlineInputs{sharded: workload == wlFedShrd}
	var err error
	switch workload {
	case wlOversub:
		if in.net, err = paperNetwork(oversubNetSeed); err != nil {
			return nil, err
		}
		in.arrivals, err = genArrivals(rng, oversubProfile, nil, in.net.sc.Network.NumMachines(), seconds)
	case wlFedOne, wlFedShrd:
		if in.net, err = fed4x10(fedNetSeed); err != nil {
			return nil, err
		}
		in.arrivals, err = genArrivals(rng, fedProfile, in.net.regions, in.net.sc.Network.NumMachines(), seconds)
	default:
		return nil, fmt.Errorf("unknown online workload %q", workload)
	}
	return in, err
}

// runOnline drives one workload against a fresh stagesvc and checks its
// outputs from the outside.
func runOnline(root, bin, workload string, seed int64, seconds float64, audit bool) (*onlineRun, error) {
	in, err := makeInputs(workload, seed, seconds)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(root, buildDir, "inputs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	scenarioFile := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	doc, err := in.net.encode()
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(scenarioFile, doc, 0o644); err != nil {
		return nil, err
	}
	var extra []string
	if in.sharded {
		mapFile := filepath.Join(dir, fmt.Sprintf("%s-seed%d.shards.json", workload, seed))
		doc, err := in.net.shardMap()
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(mapFile, doc, 0o644); err != nil {
			return nil, err
		}
		extra = append(extra, "-shard-map", mapFile)
	}
	if audit {
		extra = append(extra, "-audit")
	}

	run := &onlineRun{workload: workload, audited: audit, genMS: in.net.genMS, reasons: make(map[string]int)}
	probeSetup := func() error {
		begin := time.Now()
		for recorded := 0; recorded < setupProbes/2; {
			s, err := startServer(bin, scenarioFile, extra...)
			if err != nil {
				return err
			}
			if time.Since(begin) >= setupWarmup {
				run.setupS = append(run.setupS, s.setupS)
				recorded++
			}
			if err := s.stop(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := probeSetup(); err != nil {
		return nil, err
	}
	srv, err := startServer(bin, scenarioFile, extra...)
	if err != nil {
		return nil, err
	}
	run.setupS = append(run.setupS, srv.setupS)
	collectErr := run.drive(srv, in)
	stopErr := srv.stop()
	if collectErr != nil {
		return nil, collectErr
	}
	if stopErr != nil {
		run.violations = append(run.violations, stopErr.Error())
	}
	if err := probeSetup(); err != nil {
		return nil, err
	}
	run.check(in)
	return run, nil
}

// drive runs the open loop against a healthy service and collects what must
// be read before SIGTERM.
func (r *onlineRun) drive(srv *server, in *onlineInputs) error {
	client := newClient()
	defer client.CloseIdleConnections()

	// The service's simulated clock started with the process; line the run's
	// start instant up with simulated instant leadWall*timeScale.
	var info infoView
	t0 := time.Now()
	if _, err := getJSON(client, srv.base+"/v1/info", &info); err != nil {
		return err
	}
	mid := t0.Add(time.Since(t0) / 2)
	start := mid.Add(leadWall - time.Duration(float64(info.Now)/timeScale))
	if time.Until(start) < 0 {
		return fmt.Errorf("service took longer than the %v clock lead to come up", leadWall)
	}
	time.Sleep(time.Until(start) - 5*time.Millisecond)
	pid := srv.cmd.Process.Pid
	cpu0, err := procCPUSeconds(pid)
	if err != nil {
		return err
	}
	steal := startStealMeter()

	r.spans = runOpenLoop(client, srv.base+"/v1/requests?wait=1", in.arrivals, start)

	for i := range r.spans {
		if d := r.spans[i].Done.Seconds(); d > r.elapsedS {
			r.elapsedS = d
		}
	}
	cpu1, err := procCPUSeconds(pid)
	if err != nil {
		return err
	}
	r.cpuS = cpu1 - cpu0
	r.stealShr = steal.share()

	t0 = time.Now()
	if r.scheduleLen, err = getJSON(client, srv.base+"/v1/schedule", &r.schedule); err != nil {
		return err
	}
	r.scheduleMS = msSince(t0)
	if b, err := getBody(client, srv.base+"/metrics"); err != nil {
		return err
	} else {
		r.metricsText = string(b)
	}
	if r.audited {
		if r.auditJSONL, err = getBody(client, srv.base+"/v1/audit"); err != nil {
			return err
		}
	}
	r.rssMB, err = peakRSSMB(pid)
	return err
}

func getBody(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, nil
}

func getJSON(client *http.Client, url string, v any) (int, error) {
	b, err := getBody(client, url)
	if err != nil {
		return 0, err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return 0, fmt.Errorf("GET %s: %w", url, err)
	}
	return len(b), nil
}

// satisfiedBy re-derives which requests a transfer list satisfies: a copy of
// the item reaches the requesting machine at or before the deadline.
func satisfiedBy(sc *datastaging.Scenario, transfers []datastaging.Transfer) map[datastaging.RequestID]datastaging.Instant {
	type key struct {
		item    datastaging.ItemID
		machine datastaging.MachineID
	}
	first := make(map[key]datastaging.Instant)
	for _, tr := range transfers {
		k := key{tr.Item, tr.To}
		if at, ok := first[k]; !ok || tr.Arrival < at {
			first[k] = tr.Arrival
		}
	}
	out := make(map[datastaging.RequestID]datastaging.Instant)
	for i := range sc.Items {
		for k, rq := range sc.Items[i].Requests {
			if at, ok := first[key{sc.Items[i].ID, rq.Machine}]; ok && at <= rq.Deadline {
				out[datastaging.RequestID{Item: sc.Items[i].ID, Index: k}] = at
			}
		}
	}
	return out
}

// rebuildScenario reconstructs, from the network and the submissions alone,
// the scenario the service must have built: each ticketed submission is the
// item whose id its verdict returned. It fails when the ids are not exactly
// 0..n-1.
func rebuildScenario(net *datastaging.Scenario, subs []submission, items []int) (*datastaging.Scenario, error) {
	if len(subs) != len(items) {
		return nil, errors.New("rebuild: submissions and item ids differ in number")
	}
	out := *net
	out.Items = make([]datastaging.Item, len(subs))
	seen := make([]bool, len(subs))
	for i, sub := range subs {
		id := items[i]
		if id < 0 || id >= len(subs) || seen[id] {
			return nil, fmt.Errorf("rebuild: item id %d of submission %s is out of range or repeated", id, sub.Name)
		}
		seen[id] = true
		it := datastaging.Item{ID: datastaging.ItemID(id), Name: sub.Name, SizeBytes: sub.SizeBytes}
		for _, s := range sub.Sources {
			it.Sources = append(it.Sources, datastaging.Source{Machine: datastaging.MachineID(s.Machine)})
		}
		for _, rq := range sub.Requests {
			it.Requests = append(it.Requests, datastaging.Request{
				Machine:  datastaging.MachineID(rq.Machine),
				Deadline: datastaging.Instant(rq.Deadline),
				Priority: datastaging.Priority(rq.Priority),
			})
		}
		out.Items[id] = it
	}
	return &out, nil
}

// maxViolations bounds how many violations of one run are kept verbatim.
const maxViolations = 20

func (r *onlineRun) violate(format string, args ...any) {
	if len(r.violations) < maxViolations {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// check is the output check from outside the service: statuses, verdict
// deadlines, an independently validated final schedule, and the reported
// objective recomputed.
func (r *onlineRun) check(in *onlineInputs) {
	var subs []submission
	var items []int
	var verdicts []ticketView
	for i := range r.spans {
		sp := &r.spans[i]
		sub := in.arrivals[i].Sub
		for _, rq := range sub.Requests {
			r.upper += weights.Of(datastaging.Priority(rq.Priority))
		}
		switch sp.Status {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			continue
		default:
			r.violate("%s: status %d, want 202 or 429", sp.Name, sp.Status)
			continue
		}
		var tv ticketView
		if err := json.Unmarshal(sp.body, &tv); err != nil {
			r.violate("%s: verdict body: %v", sp.Name, err)
			sp.Status = 0
			continue
		}
		admitted := false
		r.requests += len(sub.Requests)
		if len(tv.Requests) != len(sub.Requests) {
			r.violate("%s: %d verdicts for %d requests", sp.Name, len(tv.Requests), len(sub.Requests))
		}
		for _, v := range tv.Requests {
			switch {
			case v.Status != "admitted":
				r.rejected++
				r.reasons[v.Reason]++
			case v.Completion > v.Deadline:
				r.violate("%s: admitted at machine %d with completion %d past deadline %d",
					sp.Name, v.Machine, v.Completion, v.Deadline)
			default:
				admitted = true
			}
		}
		if !admitted {
			r.ticketsRej++
		}
		subs, items, verdicts = append(subs, sub), append(items, tv.Item), append(verdicts, tv)
	}

	sc, err := rebuildScenario(in.net.sc, subs, items)
	if err != nil {
		r.violate("%v", err)
		return
	}
	r.scenario = sc
	t0 := time.Now()
	err = datastaging.ValidateSchedule(sc, r.schedule.Transfers)
	r.validateMS = msSince(t0)
	if err != nil {
		r.violate("final schedule: %v", err)
		return
	}
	sat := satisfiedBy(sc, r.schedule.Transfers)
	res := &datastaging.Result{Transfers: r.schedule.Transfers, Satisfied: sat}
	r.value = datastaging.Measure(sc, res, weights).WeightedValue
	if r.value != r.schedule.WeightedValue {
		r.violate("reported weighted value %v, recomputed %v", r.schedule.WeightedValue, r.value)
	}
	if len(sat) != r.schedule.Satisfied {
		r.violate("reported %d satisfied requests, recomputed %d", r.schedule.Satisfied, len(sat))
	}
	// Without preemption an admit is final: the schedule must deliver it.
	for i, tv := range verdicts {
		for k, v := range tv.Requests {
			if v.Status != "admitted" {
				continue
			}
			at, ok := sat[datastaging.RequestID{Item: datastaging.ItemID(items[i]), Index: k}]
			if !ok || int64(at) != v.Completion {
				r.violate("%s: admitted request %d is not delivered at its completion instant by the final schedule", subs[i].Name, k)
			}
		}
	}
	if ub := datastaging.UpperBound(sc, weights); len(subs) == len(r.spans) && ub != r.upper {
		r.violate("UpperBound of the rebuilt scenario is %v, the offered weight %v", ub, r.upper)
	}
}

// latencies returns the decision latencies (ms) of the submissions that got
// a verdict, ascending, and how many did not.
func (r *onlineRun) latencies() (ok []float64, failed int) {
	for i := range r.spans {
		if s := r.spans[i].Status; s == http.StatusAccepted {
			ok = append(ok, r.spans[i].latencyMS())
		} else {
			failed++
		}
	}
	sort.Float64s(ok)
	return ok, failed
}

// endToEnd computes the user-visible metrics of an un-audited run.
// attempted counts submissions; failed counts 429s, other non-202s,
// timeouts, and output-check violations.
func (r *onlineRun) endToEnd() (values map[string]float64, attempted, failed int) {
	lat, bad := r.latencies()
	n := float64(len(r.spans))
	return map[string]float64{
		"decision_p50_ms":  percentile(lat, 50),
		"decision_p95_ms":  percentile(lat, 95),
		"within_slo_share": float64(countAtMost(lat, sloMS)) / n,
		"value_efficiency": ratio(r.value, r.upper),
		"cpu_ms_per_req":   r.cpuS * 1000 / n,
		"peak_rss_mb":      r.rssMB,
		"setup_s":          setupStat(r.setupS),
	}, len(r.spans), bad + len(r.violations)
}

// shape summarises how the workload loaded the service.
func (r *onlineRun) shape() string {
	m, _ := parseMetrics(r.metricsText)
	n := float64(len(r.spans))
	return fmt.Sprintf("%.1f%% of requests and %.1f%% of whole tickets rejected %v, epoch busy share %.3f, %.1f%% cross-shard",
		100*ratio(float64(r.rejected), float64(r.requests)), 100*float64(r.ticketsRej)/n, r.reasons,
		ratio(m["serve_epoch_seconds_sum"], r.elapsedS), 100*m["shard_crossshard_total"]/n)
}

// maxStealShare is the CPU steal past which a run's timings describe the
// neighbours more than the service.
const maxStealShare = 0.02

// harness names what was wrong on the measuring side of a run: a late
// generator, a backlog, a busy neighbour. Such a run's timings are suspect
// whatever the service did.
func (r *onlineRun) harness() []string {
	var out []string
	if msg := health(r.spans).invalid(); msg != "" {
		out = append(out, msg)
	}
	return append(out, stealWarning(r.stealShr)...)
}

func stealWarning(share float64) []string {
	if share <= maxStealShare {
		return nil
	}
	return []string{fmt.Sprintf("the hypervisor stole %.1f%% of the machine's CPU time during the run", 100*share)}
}

// invariants names what a run broke of the properties its workload was
// tuned to have. They say whether the workload still stresses what its
// "why" claims, not whether the service is correct.
func (r *onlineRun) invariants() []string {
	var out []string
	m, err := parseMetrics(r.metricsText)
	if err != nil {
		return append(out, err.Error())
	}
	n := float64(len(r.spans))
	rejected := ratio(float64(r.rejected), float64(r.requests))
	busy := ratio(m["serve_epoch_seconds_sum"], r.elapsedS)
	switch r.workload {
	case wlOversub:
		if rejected < 0.30 || rejected > 0.50 {
			out = append(out, fmt.Sprintf("%.1f%% of requests rejected, want 30-50%%", 100*rejected))
		}
		if busy < 0.15 || busy > 0.35 {
			out = append(out, fmt.Sprintf("serve.epoch_busy_share %.3f, want 0.15-0.35", busy))
		}
	case wlFedOne:
		if rejected > 0.05 {
			out = append(out, fmt.Sprintf("%.1f%% of requests rejected, want at most 5%%", 100*rejected))
		}
	case wlFedShrd:
		if cross := m["shard_crossshard_total"] / n; cross < 0.15 || cross > 0.25 {
			out = append(out, fmt.Sprintf("%.1f%% of submissions crossed shards, want about 20%%", 100*cross))
		}
	}
	return out
}
