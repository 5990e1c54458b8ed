package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"datastaging"
)

func streamBytes(t *testing.T, workload string, seed int64, seconds float64) (traffic, network []byte) {
	t.Helper()
	in, err := makeInputs(workload, seed, seconds)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, a := range in.arrivals {
		buf.WriteString(a.At.String())
		buf.WriteByte(' ')
		buf.Write(a.Body)
		buf.WriteByte('\n')
	}
	network, err = in.net.encode()
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), network
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range []string{wlOversub, wlFedOne} {
		a, netA := streamBytes(t, w, 7, 2)
		b, netB := streamBytes(t, w, 7, 2)
		if !bytes.Equal(a, b) || !bytes.Equal(netA, netB) {
			t.Errorf("%s: two builds from seed 7 differ", w)
		}
		c, _ := streamBytes(t, w, 8, 2)
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same arrival stream", w)
		}
	}
}

func TestFedStreamsIdentical(t *testing.T) {
	one, netOne := streamBytes(t, wlFedOne, 3, 2)
	shrd, netShrd := streamBytes(t, wlFedShrd, 3, 2)
	if !bytes.Equal(one, shrd) {
		t.Error("fed_single and fed_sharded arrival streams differ for the same seed")
	}
	if !bytes.Equal(netOne, netShrd) {
		t.Error("fed_single and fed_sharded networks differ for the same seed")
	}
}

func TestFed4x10Shape(t *testing.T) {
	n, err := fed4x10(fedNetSeed)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.sc.Network.NumMachines(); got != fedRegions*fedRegionSize {
		t.Fatalf("%d machines, want %d", got, fedRegions*fedRegionSize)
	}
	wan := 0
	for _, l := range n.sc.Network.Links {
		if int(l.From)/fedRegionSize != int(l.To)/fedRegionSize {
			wan++
		}
	}
	if want := fedRegions * fedGateways * 2; wan != want {
		t.Errorf("%d inter-region links, want %d", wan, want)
	}
	var m struct {
		Shards [][]int `json:"shards"`
	}
	doc, err := n.shardMap()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(doc, &m); err != nil || len(m.Shards) != fedRegions {
		t.Errorf("shard map %s: %v", doc, err)
	}
	// The file stagesvc loads must decode back to the same network.
	file, err := n.encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := datastaging.DecodeScenario(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Network.Links) != len(n.sc.Network.Links) || len(back.Items) != 0 {
		t.Errorf("decoded %d links and %d items, want %d and 0", len(back.Network.Links), len(back.Items), len(n.sc.Network.Links))
	}
}

func TestArrivalsFollowProfile(t *testing.T) {
	in, err := makeInputs(wlFedOne, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := int(fedProfile.rate * 4); len(in.arrivals) != want {
		t.Fatalf("%d arrivals, want %d", len(in.arrivals), want)
	}
	cross := 0
	var prev time.Duration
	for _, a := range in.arrivals {
		if a.At < prev {
			t.Fatalf("%s is due before its predecessor", a.Sub.Name)
		}
		prev = a.At
		home := a.Sub.Sources[0].Machine / fedRegionSize
		spans := false
		for _, rq := range a.Sub.Requests {
			if rq.Machine/fedRegionSize != home {
				spans = true
			}
			if rq.Deadline >= int64(day) || rq.Deadline <= int64(float64(leadWall+a.At)*timeScale) {
				t.Fatalf("%s: deadline %d outside (arrival, day)", a.Sub.Name, rq.Deadline)
			}
		}
		if spans != a.Cross {
			t.Fatalf("%s: Cross=%v but the machines say %v", a.Sub.Name, a.Cross, spans)
		}
		if a.Sub.SizeBytes < fedProfile.sizeMin || a.Sub.SizeBytes > fedProfile.sizeMax {
			t.Fatalf("%s: size %d outside the profile", a.Sub.Name, a.Sub.SizeBytes)
		}
		if spans {
			cross++
		}
	}
	if share := float64(cross) / float64(len(in.arrivals)); share < 0.15 || share > 0.25 {
		t.Errorf("%.3f of submissions span regions, want about %.2f", share, 1-fedProfile.localShare)
	}
}

func TestPercentile(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {99.9, 100}, {100, 100}, {0.1, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty sample must read 0")
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %g, want 5", got)
	}
	if got := countAtMost([]float64{1, 2, 3, 4}, 3); got != 3 {
		t.Errorf("countAtMost = %d, want 3", got)
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {20, 50}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {1600, 99}, {10000, 99.9}} {
		if got := highestSupportedPercentile(c.n); got != c.want {
			t.Errorf("n=%d: p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestParseMetrics(t *testing.T) {
	m, err := parseMetrics(`# HELP serve_epochs_total epochs
# TYPE serve_epochs_total counter
serve_epochs_total 465
serve_batch_size_bucket{le="4"} 12
serve_batch_size_bucket{le="+Inf"} 20
serve_epoch_seconds_sum 4.75e-01

`)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"serve_epochs_total":                 465,
		`serve_batch_size_bucket{le="4"}`:    12,
		`serve_batch_size_bucket{le="+Inf"}`: 20,
		"serve_epoch_seconds_sum":            0.475,
	}
	if !reflect.DeepEqual(m, want) {
		t.Errorf("got %v, want %v", m, want)
	}
	if _, err := parseMetrics("serve_epochs_total many\n"); err == nil {
		t.Error("a non-numeric sample must be an error")
	}
	if _, err := parseMetrics("novalue\n"); err == nil {
		t.Error("a sample without a value must be an error")
	}
}

// auditLine renders one decision record whose hops end at the given
// wall-clock offsets (seconds after received).
func auditLine(name string, epochStart, planned, decided, settled float64) string {
	type hop struct {
		Stage string  `json:"stage"`
		WallS float64 `json:"wallS,omitempty"`
	}
	b, _ := json.Marshal(map[string]any{
		"kind": "decision", "name": name,
		"timeline": []hop{{"received", 0}, {"enqueued", 0}, {"epoch_start", epochStart},
			{"planned", planned}, {"decided", decided}, {"settled", settled}},
	})
	return string(b) + "\n"
}

func ms(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func TestJoinAudit(t *testing.T) {
	jsonl := auditLine("a", 0.010, 0.014, 0.015, 0.016) +
		`{"kind":"summary","name":"ignored"}` + "\n" +
		// b crossed shards: two legs, the longer one stands for it.
		auditLine("b", 0.001, 0.002, 0.002, 0.003) +
		auditLine("b", 0.020, 0.026, 0.028, 0.028)
	records, err := parseAudit([]byte(jsonl))
	if err != nil {
		t.Fatal(err)
	}
	spans := []span{
		{Name: "a", Intended: 0, Done: ms(18), Status: 202},
		{Name: "b", Intended: ms(5), Done: ms(35), Status: 202},
		{Name: "refused", Intended: ms(6), Done: ms(7), Status: 429},
	}
	b := joinAudit(spans, records)
	if b.records != 3 || b.joined != 2 || b.answered != 2 {
		t.Fatalf("records %d joined %d, want 3 and 2", b.records, b.joined)
	}
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("mean decision", b.meanDecisionMS, (18+30)/2.0)
	near("queue wait", b.layerMS[0], (10+20)/2.0)
	near("plan", b.layerMS[1], (4+6)/2.0)
	near("settle", b.layerMS[2], (1+2)/2.0)
	near("publish", b.layerMS[3], (1+0)/2.0)
	near("http overhead", b.httpOverheadMS, ((18-16)+(30-28))/2.0)
	near("residual", b.residualShare, 0)
	sum := b.httpOverheadMS
	for _, l := range b.layerMS {
		sum += l
	}
	near("layers + overhead", sum, b.meanDecisionMS)
	if tab := b.table("w"); !strings.Contains(tab, "serve.queue_wait_ms") || !strings.Contains(tab, "unexplained") {
		t.Errorf("budget table lacks its rows:\n%s", tab)
	}
}

func TestJoinAuditResidual(t *testing.T) {
	records, err := parseAudit([]byte(
		auditLine("long", 0.010, 0.020, 0.030, 0.040) + // claims 40 ms, the client saw 30
			`{"kind":"decision","name":"short","timeline":[{"stage":"received"}]}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	spans := []span{
		{Name: "long", Done: ms(30), Status: 202},
		{Name: "short", Done: ms(10), Status: 202},   // record has no wall-clock hops
		{Name: "missing", Done: ms(10), Status: 202}, // no record at all
	}
	b := joinAudit(spans, records)
	if want := (10.0 + 10 + 10) / 50; math.Abs(b.residualShare-want) > 1e-9 {
		t.Errorf("residual share %v, want %v", b.residualShare, want)
	}
	if _, err := parseAudit([]byte("{not json")); err == nil {
		t.Error("malformed audit input must be an error")
	}
}

func TestRebuildScenario(t *testing.T) {
	net, err := paperNetwork(oversubNetSeed)
	if err != nil {
		t.Fatal(err)
	}
	subs := []submission{
		{Name: "x", SizeBytes: 10, Sources: []sourceSpec{{0}}, Requests: []requestSpec{{Machine: 1, Deadline: 100, Priority: 2}}},
		{Name: "y", SizeBytes: 20, Sources: []sourceSpec{{2}, {3}}, Requests: []requestSpec{{Machine: 4, Deadline: 200, Priority: 0}, {Machine: 5, Deadline: 300, Priority: 1}}},
	}
	// The service numbered y before x.
	sc, err := rebuildScenario(net.sc, subs, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Items[0].Name != "y" || sc.Items[1].Name != "x" || sc.Items[0].ID != 0 || len(sc.Items[0].Requests) != 2 {
		t.Errorf("items not ordered by returned id: %+v", sc.Items)
	}
	if got, want := datastaging.UpperBound(sc, weights), weights.Of(2)+weights.Of(0)+weights.Of(1); got != want {
		t.Errorf("UpperBound %v, want %v", got, want)
	}
	if len(net.sc.Items) != 0 {
		t.Error("rebuild wrote through to the network scenario")
	}
	for _, ids := range [][]int{{0, 0}, {0, 2}, {-1, 0}, {0}} {
		if _, err := rebuildScenario(net.sc, subs, ids); err == nil {
			t.Errorf("item ids %v accepted", ids)
		}
	}
}

// satisfiedBy is the benchmark's own reading of a transfer list; on an
// offline schedule it must agree with what the scheduler reported.
func TestSatisfiedByAgreesWithScheduler(t *testing.T) {
	sc, err := offlineScenario(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := datastaging.Schedule(sc, offlineConfig(datastaging.FullPathOneDest))
	if err != nil {
		t.Fatal(err)
	}
	if got := satisfiedBy(sc, res.Transfers); !reflect.DeepEqual(got, res.Satisfied) {
		t.Errorf("re-derived %d satisfied requests, the scheduler reported %d", len(got), len(res.Satisfied))
	}
	total := 0
	for i := range sc.Items {
		total += len(sc.Items[i].Requests)
	}
	if got := len(unsatisfied(sc, res.Satisfied)); got != total-len(res.Satisfied) {
		t.Errorf("%d unsatisfied, want %d", got, total-len(res.Satisfied))
	}
}

func TestProcParsers(t *testing.T) {
	steal, total, err := parseHostSteal("cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n")
	if err != nil || steal != 35 || total != 1000 {
		t.Errorf("steal %v of %v, %v; want 35 of 1000", steal, total, err)
	}
	if _, _, err := parseHostSteal("intr 1 2 3\n"); err == nil {
		t.Error("a stat file without the cpu line accepted")
	}
	cpu, err := parseStatCPU("42 (stage svc) x) S 1 42 42 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 5 0 100 1000 10")
	if err != nil || cpu != 3 {
		t.Errorf("cpu = %v, %v; want 3 s", cpu, err)
	}
	for _, bad := range []string{"no comm", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 a b c"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	rss, err := parseVmHWM("Name:\tstagesvc\nVmHWM:\t   26624 kB\nVmRSS:\t 100 kB\n")
	if err != nil || rss != 26 {
		t.Errorf("rss = %v, %v; want 26 MiB", rss, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("a status file without VmHWM accepted")
	}
	if _, err := peakRSSMB(os.Getpid()); err != nil {
		t.Error(err)
	}
	if _, err := procCPUSeconds(os.Getpid()); err != nil {
		t.Error(err)
	}
}

func TestLoadgenHealth(t *testing.T) {
	spans := make([]span, 400)
	for i := range spans {
		spans[i] = span{Intended: ms(float64(i)), Sent: ms(float64(i)) + 100*time.Microsecond, Inflight: 4}
	}
	if msg := health(spans).invalid(); msg != "" {
		t.Errorf("a steady run is reported invalid: %s", msg)
	}
	for i := 300; i < 400; i++ {
		spans[i].Inflight = 4 + (i - 300)
	}
	if msg := health(spans).invalid(); !strings.Contains(msg, "backlog") {
		t.Errorf("a rising backlog is not reported: %q", msg)
	}
	for i := 0; i < 10; i++ {
		spans[i*7].Sent += ms(maxLateP99MS + 1)
	}
	h := health(spans)
	if msg := h.invalid(); !strings.Contains(msg, "late") || h.inflightMax != 103 {
		t.Errorf("a late generator is not reported: %q (inflight max %d)", msg, h.inflightMax)
	}
}

func TestRepeatGap(t *testing.T) {
	if g := repeatGap(100, 90); g != 0.1 {
		t.Errorf("gap = %v, want 0.1", g)
	}
	if g := repeatGap(100, 125); g != 0.25 {
		t.Errorf("gap = %v, want 0.25", g)
	}
}

// A disturbed measurement is made again, up to maxAttempts times and never
// past the invocation's budget; a clean one, or a failed one, ends the loop.
func TestUndisturbed(t *testing.T) {
	late := []string{"generator ran late"}
	for _, tc := range []struct {
		name      string
		budget    time.Duration
		disturbed []bool // per measurement
		failAt    int    // 1-based measurement that returns an error; 0: none
		calls     int
	}{
		{"clean", 0, []bool{false}, 0, 1},
		{"clean on the second", 0, []bool{true, false}, 0, 2},
		{"never clean", 0, []bool{true, true, true, true}, 0, maxAttempts},
		{"budget spent", time.Nanosecond, []bool{true, true}, 0, 1},
		{"error", 0, []bool{true, true}, 2, 2},
	} {
		var out bytes.Buffer
		b := &bench{out: &out, begin: time.Now().Add(-time.Second), budget: tc.budget}
		calls := 0
		err := b.undisturbed("w", func() ([]string, error) {
			calls++
			if calls == tc.failAt {
				return nil, os.ErrInvalid
			}
			if tc.disturbed[calls-1] {
				return late, nil
			}
			return nil, nil
		})
		if calls != tc.calls || (err != nil) != (tc.failAt > 0) {
			t.Errorf("%s: %d measurements, error %v; want %d", tc.name, calls, err, tc.calls)
		}
		if got := strings.Count(out.String(), "discarded"); got != max(tc.calls-1, 0) {
			t.Errorf("%s: %d discarded measurements printed, want %d:\n%s", tc.name, got, tc.calls-1, out.String())
		}
	}
}

// BENCHMARK.json repeats the spec tables; the driver reads the file, the
// program prints from the tables.
func TestBenchmarkJSON(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds float64        `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Workloads, workloads) {
		t.Error("BENCHMARK.json workloads differ from spec.go")
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Error("BENCHMARK.json end_to_end differs from spec.go")
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Error("BENCHMARK.json per_layer differs from spec.go")
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, the program's default is %v", file.RunSeconds, defaultSeconds)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("paths %v", file.Paths)
	}
	setup := false
	for _, m := range endToEnd {
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

func TestReportListsExactlyTheSpec(t *testing.T) {
	got := report(endToEnd, map[string]float64{"decision_p50_ms": 1.5, "not_a_metric": 2})
	if len(got) != len(endToEnd) || got["decision_p50_ms"] != (metricValue{1.5, "ms"}) {
		t.Errorf("report = %v", got)
	}
	if _, ok := got["not_a_metric"]; ok {
		t.Error("report passed an unlisted metric through")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-seconds", "0"}, {"-trace", "2"}, {"stray"}, {"-no-such-flag"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errb); code != 1 || !strings.Contains(errb.String(), "unknown workload") {
		t.Errorf("unknown workload: exit %d, stderr %q", code, errb.String())
	}
}

// lastLine decodes the result line a single-workload run ends with.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return r
}

// A small offline run, both modes, through the same entry point the driver
// uses. No child process: offline_paper runs in this one.
func TestOfflineSingle(t *testing.T) {
	var first float64
	for i, trace := range []string{"0", "1", "0"} {
		var out, errb bytes.Buffer
		if code := run([]string{"-workload", wlOffline, "-seed", "2", "-seconds", "0.1", "-trace", trace, "-out", t.TempDir()}, &out, &errb); code != 0 {
			t.Fatalf("exit %d: %s", code, errb.String())
		}
		r := lastLine(t, out.String())
		seconds := 0.1
		want := len(offlineHeuristics) * int(seconds*scenariosPerSecond)
		if !r.Correct || r.Failed != 0 || r.Attempted != want {
			t.Fatalf("trace %s: %+v, want %d attempted and none failed", trace, r, want)
		}
		specs := endToEnd
		if trace == "1" {
			specs = perLayer
		}
		if len(r.Metrics) != len(specs) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(r.Metrics), len(specs))
		}
		if trace == "1" {
			for _, name := range []string{
				"core.schedule_ms.partial", "core.schedule_ms.full_one", "core.schedule_ms.full_all",
				"core.dijkstra_runs_per_schedule", "dijkstra.compute_us", "state.slot_query_ns",
				"simtime.earliest_fit_ns", "resource.min_available_ns", "explain.diagnose_us",
				"validator.validate_ms", "gen.generate_ms",
			} {
				if r.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want a positive reading", name, r.Metrics[name].Value)
				}
			}
			continue
		}
		for _, m := range endToEnd {
			if r.Metrics[m.Name].Value <= 0 || r.Metrics[m.Name].Unit != m.Unit {
				t.Errorf("%s = %+v, want a positive reading in %s", m.Name, r.Metrics[m.Name], m.Unit)
			}
		}
		// The schedules are deterministic: value_efficiency repeats bit for bit.
		if v := r.Metrics["value_efficiency"].Value; i == 0 {
			first = v
		} else if v != first {
			t.Errorf("value_efficiency %v on the second run, %v on the first", v, first)
		}
	}
}

// The smoke test: a 2-second paper_oversub against a freshly built stagesvc,
// end to end and traced, output checks included.
func TestOnlineSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs stagesvc")
	}
	dir := t.TempDir()
	for _, trace := range []string{"0", "1"} {
		var out, errb bytes.Buffer
		if code := run([]string{"-workload", wlOversub, "-seed", "1", "-seconds", "2", "-trace", trace, "-out", dir}, &out, &errb); code != 0 {
			t.Fatalf("trace %s: exit %d: %s\n%s", trace, code, errb.String(), out.String())
		}
		r := lastLine(t, out.String())
		if !r.Correct || r.Failed != 0 || r.Attempted != int(2*oversubProfile.rate) {
			t.Fatalf("trace %s: %+v", trace, r)
		}
		if trace == "0" {
			for _, m := range endToEnd {
				if r.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s = %v, want a positive reading", m.Name, r.Metrics[m.Name].Value)
				}
			}
			continue
		}
		if res := r.Metrics["serve.budget_residual_share"].Value; res > maxResidualShare {
			t.Errorf("budget residual %v above %v", res, maxResidualShare)
		}
		for _, name := range []string{"serve.queue_wait_ms", "serve.plan_ms", "serve.epochs", "core.dijkstra_runs_per_req", "obs.audit_records", "wire.verdict_body_bytes"} {
			if r.Metrics[name].Value <= 0 {
				t.Errorf("%s = %v, want a positive reading", name, r.Metrics[name].Value)
			}
		}
		for _, f := range []string{"paper_oversub-seed1.spans.json", "paper_oversub-seed1.budget.txt"} {
			if st, err := os.Stat(filepath.Join(dir, f)); err != nil || st.Size() == 0 {
				t.Errorf("trace output %s missing or empty: %v", f, err)
			}
		}
	}
}
