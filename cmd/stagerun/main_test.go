package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"datastaging/internal/core"
	"datastaging/internal/eval"
	"datastaging/internal/gen"
	"datastaging/internal/model"
	"datastaging/internal/testnet"
)

func TestBuildConfig(t *testing.T) {
	w := model.Weights1x10x100
	cfg, err := buildConfig("partial", "c3", "-inf", w)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Heuristic != core.PartialPath || cfg.Criterion != core.C3 || cfg.EU != core.EUUrgencyOnly {
		t.Errorf("got %+v", cfg)
	}
	cfg, err = buildConfig("full_all", "C4", "2", w)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Heuristic != core.FullPathAllDests || cfg.EU.WE != 100 {
		t.Errorf("got %+v", cfg)
	}
	if _, err := buildConfig("full_one", "C1", "inf", w); err != nil {
		t.Errorf("inf EU: %v", err)
	}
	for _, tc := range [][3]string{
		{"bogus", "C1", "0"},
		{"partial", "C9", "0"},
		{"partial", "C1", "huh"},
		{"full_all", "C1", "0"}, // excluded pairing
	} {
		if _, err := buildConfig(tc[0], tc[1], tc[2], w); err == nil {
			t.Errorf("buildConfig(%v) accepted", tc)
		}
	}
}

func TestParseWeights(t *testing.T) {
	if w, err := parseWeights("1,10,100"); err != nil || w.Of(model.High) != 100 {
		t.Errorf("got %v, %v", w, err)
	}
	if w, err := parseWeights("1,5,10"); err != nil || w.Of(model.Medium) != 5 {
		t.Errorf("got %v, %v", w, err)
	}
	if w, err := parseWeights("3,7"); err != nil || len(w) != 2 {
		t.Errorf("custom: got %v, %v", w, err)
	}
	if _, err := parseWeights("a,b"); err == nil {
		t.Error("junk weights accepted")
	}
}

func TestRunEndToEndFromSeed(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-seed", "11", "-heuristic", "partial", "-criterion", "C3", "-transfers", "-timeline"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"scheduler: partial/C3", "value:", "satisfied:", "priority",
		"transfers:", "schedule timeline", "busiest links",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

var update = flag.Bool("update", false, "rewrite golden files")

// elapsedRE matches the wall-clock figure on the "work:" line, the one
// part of stagerun's output that differs between identical runs.
var elapsedRE = regexp.MustCompile(`(?m)^(work: .*, )\S+( elapsed)$`)

// TestTimelineGolden pins -timeline output byte for byte (the work line's
// elapsed time masked) for three heuristics on four generated scenarios.
func TestTimelineGolden(t *testing.T) {
	for _, seed := range []int{1, 3, 7, 11} {
		for _, h := range []string{"partial", "full_one", "full_all"} {
			name := fmt.Sprintf("timeline_seed%d_%s", seed, h)
			t.Run(name, func(t *testing.T) {
				var buf bytes.Buffer
				if err := run([]string{"-seed", strconv.Itoa(seed), "-heuristic", h, "-timeline"}, &buf); err != nil {
					t.Fatal(err)
				}
				got := elapsedRE.ReplaceAll(buf.Bytes(), []byte("${1}ELAPSED${2}"))
				golden := filepath.Join("testdata", name+".golden")
				if *update {
					if err := os.MkdirAll("testdata", 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(golden, got, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatalf("read golden (run with -update to regenerate): %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("output differs from golden %s (run with -update to regenerate)\ngot:\n%s", golden, got)
				}
			})
		}
	}
}

func TestRunExplainsUnsatisfiedRequests(t *testing.T) {
	var buf bytes.Buffer
	// Seed 11 at paper scale always has unsatisfied requests.
	if err := run([]string{"-seed", "11", "-criterion", "C5", "-explain", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "scheduler: full_one/C5") {
		t.Errorf("C5 flag not honored:\n%s", out)
	}
	if !strings.Contains(out, "unsatisfied request diagnoses:") {
		t.Error("missing diagnoses section")
	}
	if !strings.Contains(out, "more unsatisfied requests") {
		t.Error("missing truncation line for a heavily oversubscribed case")
	}
}

func TestRunEveryBaselineScheduler(t *testing.T) {
	for _, sched := range []string{"priority_first", "random_dijkstra", "single_dij_random"} {
		var buf bytes.Buffer
		if err := run([]string{"-seed", "11", "-scheduler", sched}, &buf); err != nil {
			t.Errorf("%s: %v", sched, err)
		}
		if !strings.Contains(buf.String(), "value:") {
			t.Errorf("%s: no value line", sched)
		}
	}
	var buf bytes.Buffer
	if err := run([]string{"-scheduler", "bogus"}, &buf); err == nil {
		t.Error("bogus scheduler accepted")
	}
}

func TestRunFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sc.json")
	p := gen.Default()
	p.Machines = gen.IntRange{Min: 5, Max: 5}
	p.RequestsPerMachine = gen.IntRange{Min: 4, Max: 4}
	sc := testnet.Generate(p, 9)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Encode(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var buf bytes.Buffer
	if err := run([]string{"-in", path}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "gen-seed9") {
		t.Errorf("output missing scenario name:\n%s", buf.String())
	}
	if err := run([]string{"-in", "/does/not/exist"}, &buf); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRunWritesTransfersCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "transfers.csv")
	var buf bytes.Buffer
	if err := run([]string{"-seed", "11", "-csvout", path}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "item,name,from,to,link") {
		t.Errorf("csv header missing: %.80s", data)
	}
	if len(strings.Split(string(data), "\n")) < 10 {
		t.Error("csv suspiciously short for a paper-scale run")
	}
}

// TestRunMetricsSnapshotMatchesResult is the acceptance check for the
// observability wiring: the JSON snapshot -metrics-out emits must carry a
// run.weighted_value gauge that equals the run's weighted objective —
// recomputed here independently from the same seed — exactly, not
// approximately.
func TestRunMetricsSnapshotMatchesResult(t *testing.T) {
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.json")
	tracePath := filepath.Join(dir, "trace.jsonl")
	var buf bytes.Buffer
	err := run([]string{"-seed", "11", "-metrics-out", metricsPath, "-trace-out", tracePath}, &buf)
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64   `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}

	// Re-run the same configuration (defaults: full_one/C4 at log10=2,
	// weights 1,10,100) and recompute the objective independently.
	sc := testnet.Generate(gen.Default(), 11)
	w := model.Weights1x10x100
	cfg := core.Config{Heuristic: core.FullPathOneDest, Criterion: core.C4,
		EU: core.EUFromLog10(2), Weights: w}
	res, err := core.Schedule(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := eval.Measure(sc, res, w)
	if got := snap.Gauges["run.weighted_value"]; got != m.WeightedValue {
		t.Errorf("run.weighted_value = %v, independent recomputation = %v", got, m.WeightedValue)
	}
	if got := snap.Gauges["run.satisfied_requests"]; got != float64(len(res.Satisfied)) {
		t.Errorf("run.satisfied_requests = %v, want %d", got, len(res.Satisfied))
	}
	if got := snap.Counters["core.commits_total"]; got != int64(res.Stats.Commits) {
		t.Errorf("core.commits_total = %d, want %d", got, res.Stats.Commits)
	}
	if got := snap.Counters["core.requests_satisfied_total"]; got != int64(len(res.Satisfied)) {
		t.Errorf("core.requests_satisfied_total = %d, want %d", got, len(res.Satisfied))
	}

	// The trace file is JSONL: every line decodes to an event, and the
	// booked-transfer lines agree with the schedule size.
	traceData, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	booked := 0
	lines := strings.Split(strings.TrimSpace(string(traceData)), "\n")
	for i, line := range lines {
		var e struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("trace line %d is not JSON: %v", i, err)
		}
		if e.Kind == "transfer_booked" {
			booked++
		}
	}
	if booked != len(res.Transfers) {
		t.Errorf("%d transfer_booked events, schedule has %d transfers", booked, len(res.Transfers))
	}

	if !strings.Contains(buf.String(), "metrics:") {
		t.Error("metrics table missing from output")
	}
}

func TestRunPprofEndpointServes(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-seed", "3", "-introspect-addr", "127.0.0.1:0"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "introspect: http://127.0.0.1:") {
		t.Fatalf("introspection address not announced:\n%s", out)
	}
	// The listener is closed when run returns; this test pins flag parsing
	// and binding, TestMain-level serving is covered by the line above.
	if err := run([]string{"-seed", "3", "-introspect-addr", "not-an-address"}, &buf); err == nil {
		t.Error("bogus introspection address accepted")
	}
}

func TestRunChromeTraceAndUtilization(t *testing.T) {
	dir := t.TempDir()
	chromePath := filepath.Join(dir, "run.json")
	var buf bytes.Buffer
	err := run([]string{"-seed", "7", "-chrome-trace-out", chromePath, "-utilization", "-explain", "1"}, &buf)
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(chromePath)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			Cat string  `json:"cat"`
			Dur float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	transfers := 0
	for _, e := range tf.TraceEvents {
		if e.Cat == "transfer" && e.Ph == "X" && e.Dur > 0 {
			transfers++
		}
	}
	if transfers == 0 {
		t.Errorf("chrome trace has no transfer spans (%d events total)", len(tf.TraceEvents))
	}
	if !strings.Contains(buf.String(), "(chrome trace: ") {
		t.Error("chrome trace path not announced")
	}

	out := buf.String()
	for _, want := range []string{"link utilization (exact):", "busy frac", "bottlenecks:"} {
		if !strings.Contains(out, want) {
			t.Errorf("-utilization output missing %q:\n%s", want, out)
		}
	}
}

// TestRunIntrospectServesLiveMetrics scrapes /metrics while run is still
// inside (via the exit hook, with the listener open) and checks the
// exposition's run_weighted_value matches the JSON snapshot bit for bit.
func TestRunIntrospectServesLiveMetrics(t *testing.T) {
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.json")
	var buf bytes.Buffer
	var scraped string
	var runinfo string
	testHookBeforeExit = func() {
		out := buf.String()
		i := strings.Index(out, "introspect: http://")
		if i < 0 {
			t.Fatalf("introspect address not announced:\n%s", out)
		}
		addr := out[i+len("introspect: "):]
		addr = strings.TrimSpace(addr[:strings.Index(addr, "\n")])
		for path, dst := range map[string]*string{"metrics": &scraped, "runinfo": &runinfo} {
			resp, err := http.Get(addr + path)
			if err != nil {
				t.Fatalf("scrape /%s: %v", path, err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			*dst = string(body)
		}
	}
	defer func() { testHookBeforeExit = nil }()

	err := run([]string{"-seed", "5", "-introspect-addr", "127.0.0.1:0", "-metrics-out", metricsPath}, &buf)
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Gauges map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	want := snap.Gauges["run.weighted_value"]
	found := false
	for _, line := range strings.Split(scraped, "\n") {
		if !strings.HasPrefix(line, "run_weighted_value ") {
			continue
		}
		found = true
		got, err := strconv.ParseFloat(strings.TrimPrefix(line, "run_weighted_value "), 64)
		if err != nil {
			t.Fatalf("bad exposition line %q: %v", line, err)
		}
		if got != want {
			t.Errorf("live run_weighted_value = %v, snapshot = %v (must be bit-exact)", got, want)
		}
	}
	if !found {
		t.Errorf("run_weighted_value missing from live /metrics:\n%s", scraped)
	}
	if !strings.Contains(runinfo, `"phase": "done"`) || !strings.Contains(runinfo, `"scenario": "gen-seed5"`) {
		t.Errorf("runinfo incomplete:\n%s", runinfo)
	}
}
