package introspect

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"datastaging/internal/obs"
)

func get(t *testing.T, h http.Handler, path string) (*http.Response, []byte) {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestMetricsEndpointBitExact(t *testing.T) {
	o := obs.New()
	v := math.Nextafter(1234.5, 2000)
	o.Gauge("run.weighted_value").Set(v)
	o.Counter("core.commits_total").Add(3)

	resp, body := get(t, NewServer(o).Handler(), "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	found := false
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "run_weighted_value ") {
			continue
		}
		found = true
		back, err := strconv.ParseFloat(strings.TrimPrefix(line, "run_weighted_value "), 64)
		if err != nil {
			t.Fatalf("value does not parse: %v", err)
		}
		if back != v {
			t.Errorf("run_weighted_value round-trip %v != %v", back, v)
		}
	}
	if !found {
		t.Errorf("run_weighted_value missing:\n%s", body)
	}
	if !strings.Contains(string(body), "core_commits_total 3\n") {
		t.Errorf("counter missing:\n%s", body)
	}
}

func TestEventsEndpoint(t *testing.T) {
	o := &obs.Obs{Metrics: obs.NewRegistry(), Tracer: obs.NewTracer(2, obs.Discard)}
	for i := 0; i < 5; i++ {
		o.Tracer.Emit(obs.Event{Kind: obs.EvIteration, N: i})
	}
	_, body := get(t, NewServer(o).Handler(), "/events")
	var resp struct {
		Total    uint64           `json:"total"`
		Dropped  uint64           `json:"dropped"`
		RingSize int              `json:"ringSize"`
		Events   []map[string]any `json:"events"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("events not JSON: %v\n%s", err, body)
	}
	if resp.Total != 5 || resp.Dropped != 3 || resp.RingSize != 2 || len(resp.Events) != 2 {
		t.Errorf("events response = %+v", resp)
	}
	if resp.Events[0]["kind"] != "iteration" {
		t.Errorf("event kind = %v", resp.Events[0]["kind"])
	}
}

func TestEventsEndpointNoTracer(t *testing.T) {
	_, body := get(t, NewServer(obs.New()).Handler(), "/events")
	var resp struct {
		Events []any `json:"events"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("events not JSON without a tracer: %v\n%s", err, body)
	}
	if len(resp.Events) != 0 {
		t.Errorf("expected empty events, got %v", resp.Events)
	}
}

func TestRunInfoAndPhase(t *testing.T) {
	s := NewServer(obs.New())
	s.SetRunInfo(RunInfo{
		Scenario: "badd-seed42", Machines: 40, Requests: 160,
		Scheduler: "full_one/C4",
		Config:    map[string]string{"weights": "1,10,100"},
	})
	s.SetPhase("sweep 3/44")
	_, body := get(t, s.Handler(), "/runinfo")
	var resp map[string]any
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("runinfo not JSON: %v\n%s", err, body)
	}
	if resp["scenario"] != "badd-seed42" || resp["phase"] != "sweep 3/44" {
		t.Errorf("runinfo = %v", resp)
	}
	if resp["machines"] != float64(40) {
		t.Errorf("machines = %v", resp["machines"])
	}

	// A phase function is called only when /runinfo is read, and SetPhase
	// replaces it.
	phase := func() any {
		_, body := get(t, s.Handler(), "/runinfo")
		var r map[string]any
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatalf("runinfo not JSON: %v\n%s", err, body)
		}
		return r["phase"]
	}
	var calls atomic.Int64
	s.SetPhaseFunc(func() string { return "epoch " + strconv.FormatInt(calls.Add(1), 10) })
	s.SetPhaseFunc(func() string { return "epoch " + strconv.FormatInt(10+calls.Add(1), 10) })
	if n := calls.Load(); n != 0 {
		t.Errorf("phase formatted %d times before any read", n)
	}
	for _, want := range []string{"epoch 11", "epoch 12"} {
		if got := phase(); got != want {
			t.Errorf("phase = %v, want %q", got, want)
		}
	}
	s.SetPhase("idle")
	if got, n := phase(), calls.Load(); got != "idle" || n != 2 {
		t.Errorf("after SetPhase: phase %v, %d calls", got, n)
	}

	// A nil server swallows updates without panicking.
	var nilS *Server
	nilS.SetPhase("x")
	nilS.SetPhaseFunc(func() string { return "x" })
	nilS.SetRunInfo(RunInfo{})
}

func TestIndexAndPprofMounted(t *testing.T) {
	h := NewServer(obs.New()).Handler()
	resp, body := get(t, h, "/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "/metrics") {
		t.Errorf("index: status %d body %q", resp.StatusCode, body)
	}
	resp, _ = get(t, h, "/debug/pprof/")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status %d", resp.StatusCode)
	}
	resp, _ = get(t, h, "/no-such")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status %d", resp.StatusCode)
	}
}

func TestStartServes(t *testing.T) {
	s := NewServer(obs.New())
	ln, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %d", resp.StatusCode)
	}
}
