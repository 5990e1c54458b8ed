package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Error("same name returned a different counter")
	}

	g := r.Gauge("g")
	g.Set(3.25)
	if got := g.Value(); got != 3.25 {
		t.Errorf("gauge = %v, want 3.25", got)
	}
	g.SetMax(1)
	if got := g.Value(); got != 3.25 {
		t.Errorf("SetMax lowered the gauge to %v", got)
	}
	g.SetMax(7.5)
	if got := g.Value(); got != 7.5 {
		t.Errorf("SetMax = %v, want 7.5", got)
	}
	// Bit-exactness: an awkward float must round-trip through the gauge.
	v := math.Nextafter(1234.5, 2000)
	g.Set(v)
	if got := g.Value(); got != v {
		t.Errorf("gauge not bit-exact: %v != %v", got, v)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 2, 10, 11, 1000} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["h"]
	want := []int64{2, 2, 1, 1} // ≤1: {0.5, 1}; ≤10: {2, 10}; ≤100: {11}; over: {1000}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 6 {
		t.Errorf("count = %d, want 6", s.Count)
	}
	if got := s.Sum; got != 0.5+1+2+10+11+1000 {
		t.Errorf("sum = %v", got)
	}
	if got := s.Mean(); got != s.Sum/6 {
		t.Errorf("mean = %v", got)
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	g := r.Gauge("g")
	g.Set(1)
	g.SetMax(2)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
	h := r.Histogram("h", CountBuckets)
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram observed")
	}
	var tr *Tracer
	tr.Emit(Event{Kind: EvIteration})
	if tr.Enabled() || tr.Total() != 0 || tr.Recent() != nil {
		t.Error("nil tracer not disabled")
	}
	var o *Obs
	o.Counter("x").Inc()
	o.Gauge("x").Set(1)
	o.Histogram("x", CountBuckets).Observe(1)
	if o.Trace().Enabled() {
		t.Error("nil obs tracer enabled")
	}
	span := o.Phase("p").Start()
	if span.Stop() < 0 {
		t.Error("negative span")
	}
	snap := o.Snapshot()
	if len(snap.Counters) != 0 {
		t.Error("nil obs snapshot not empty")
	}
	if s := r.Snapshot(); s.Counters == nil || s.Gauges == nil || s.Histograms == nil {
		t.Error("nil registry snapshot has nil maps")
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const workers, each = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Counter("c").Inc()
				r.Gauge("hw").SetMax(float64(w*each + i))
				r.Histogram("h", CountBuckets).Observe(1)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*each {
		t.Errorf("counter = %d, want %d", got, workers*each)
	}
	if got := r.Gauge("hw").Value(); got != workers*each-1 {
		t.Errorf("high water = %v, want %d", got, workers*each-1)
	}
	if got := r.Histogram("h", CountBuckets).Count(); got != workers*each {
		t.Errorf("histogram count = %d, want %d", got, workers*each)
	}
}

func TestPhaseTimerAccumulates(t *testing.T) {
	r := NewRegistry()
	p := r.Phase("replan")
	span := p.Start()
	time.Sleep(time.Millisecond)
	d := span.Stop()
	if d <= 0 || p.Total() < d {
		t.Errorf("span %v, total %v", d, p.Total())
	}
	s := r.Snapshot()
	h, ok := s.Histograms["replan_seconds"]
	if !ok || h.Count != 1 {
		t.Fatalf("phase histogram missing or empty: %+v", s.Histograms)
	}
	if math.Abs(h.Sum-p.Total().Seconds()) > 1e-9 {
		t.Errorf("histogram sum %v != timer total %v", h.Sum, p.Total().Seconds())
	}
}

func TestTracerRingAndSinks(t *testing.T) {
	mem := &MemorySink{}
	tr := NewTracer(4, mem)
	for i := 0; i < 6; i++ {
		tr.Emit(Event{Kind: EvIteration, N: i})
	}
	if tr.Total() != 6 {
		t.Errorf("total = %d, want 6", tr.Total())
	}
	recent := tr.Recent()
	if len(recent) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(recent))
	}
	for i, e := range recent {
		if e.N != i+2 {
			t.Errorf("ring[%d].N = %d, want %d (oldest-first)", i, e.N, i+2)
		}
	}
	all := mem.Events()
	if len(all) != 6 {
		t.Errorf("memory sink saw %d events, want all 6", len(all))
	}
	for i, e := range all {
		if e.Kind != EvIteration || e.N != i {
			t.Errorf("memory sink event %d = %+v, want iteration %d", i, e, i)
		}
	}
	Discard.Emit(Event{Kind: EvItemDead})
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Emit(Event{Kind: EvTransferBooked, Item: 3, Link: 7, Machine: 2, At: 42, Value: 1.5})
	s.Emit(Event{Kind: EvForestInvalidated, Item: 1, Reason: ReasonConflict})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first["kind"] != "transfer_booked" || first["item"] != float64(3) || first["link"] != float64(7) {
		t.Errorf("first line decoded to %v", first)
	}
	var second map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if second["reason"] != "conflict" {
		t.Errorf("reason = %v, want conflict", second["reason"])
	}
}

func TestSnapshotWriteJSON(t *testing.T) {
	o := New()
	o.Counter("core.commits_total").Add(12)
	o.Gauge("run.weighted_value").Set(987.5)
	o.Histogram("core.replan_seconds", DurationBuckets).Observe(0.003)
	var buf bytes.Buffer
	if err := o.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v\n%s", err, buf.String())
	}
	if back.Counters["core.commits_total"] != 12 {
		t.Errorf("counter lost: %+v", back.Counters)
	}
	if back.Gauges["run.weighted_value"] != 987.5 {
		t.Errorf("gauge lost: %+v", back.Gauges)
	}
	if h := back.Histograms["core.replan_seconds"]; h.Count != 1 {
		t.Errorf("histogram lost: %+v", h)
	}
}

func TestDroppedCounter(t *testing.T) {
	o := NewTraced(Discard)
	if got := o.Tracer.RingSize(); got != DefaultRingSize {
		t.Fatalf("ring size = %d, want %d", got, DefaultRingSize)
	}
	const over = 3
	for i := 0; i < DefaultRingSize+over; i++ {
		o.Tracer.Emit(Event{Kind: EvIteration, N: i})
	}
	if got := o.Tracer.Dropped(); got != over {
		t.Errorf("dropped = %d, want %d", got, over)
	}
	if got := o.Snapshot().Counters["trace.dropped_events_total"]; got != over {
		t.Errorf("trace.dropped_events_total = %d, want %d", got, over)
	}
	if got := o.Tracer.Total(); got != DefaultRingSize+over {
		t.Errorf("total = %d, want %d", got, DefaultRingSize+over)
	}
	if got := len(o.Tracer.Recent()); got != DefaultRingSize {
		t.Errorf("recent = %d events, want %d", got, DefaultRingSize)
	}

	// A non-positive capacity falls back to the default.
	if got := NewTracer(-1, Discard).RingSize(); got != DefaultRingSize {
		t.Errorf("ring size with -1 = %d, want %d", got, DefaultRingSize)
	}
	var nilT *Tracer
	if nilT.Dropped() != 0 || nilT.RingSize() != 0 {
		t.Error("nil tracer reports dropped events or a ring")
	}
}

func TestTeeSink(t *testing.T) {
	a, b := &MemorySink{}, &MemorySink{}
	tee := Tee(a, nil, b)
	tee.Emit(Event{Kind: EvIteration})
	tee.Emit(Event{Kind: EvItemDead})
	for _, s := range []*MemorySink{a, b} {
		if evs := s.Events(); len(evs) != 2 || evs[0].Kind != EvIteration || evs[1].Kind != EvItemDead {
			t.Errorf("tee did not fan out: a=%v b=%v", a.Events(), b.Events())
		}
	}
	if got := Tee(); got != Discard {
		t.Error("empty Tee should be Discard")
	}
	if got := Tee(nil, a); got != Sink(a) {
		t.Error("single-sink Tee should unwrap")
	}
}

func TestWritePrometheus(t *testing.T) {
	o := New()
	o.Counter("state.slot_query_total").Add(42)
	v := math.Nextafter(987.5, 1000) // awkward float: must round-trip bit-exactly
	o.Gauge("run.weighted_value").Set(v)
	h := o.Histogram("h", []float64{1, 10, 100})
	for _, x := range []float64{0.5, 1, 2, 10, 11, 1000} {
		h.Observe(x)
	}
	var buf bytes.Buffer
	if err := o.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	wantLines := []string{
		"# TYPE state_slot_query_total counter",
		"state_slot_query_total 42",
		"# TYPE run_weighted_value gauge",
		"# TYPE h histogram",
		`h_bucket{le="1"} 2`,   // cumulative: {0.5, 1}
		`h_bucket{le="10"} 4`,  // + {2, 10}
		`h_bucket{le="100"} 5`, // + {11}
		`h_bucket{le="+Inf"} 6`,
		"h_count 6",
	}
	for _, want := range wantLines {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	// Bit-exact gauge round-trip through the text format.
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "run_weighted_value ") {
			continue
		}
		back, err := strconv.ParseFloat(strings.TrimPrefix(line, "run_weighted_value "), 64)
		if err != nil {
			t.Fatalf("gauge value does not parse: %v", err)
		}
		if back != v {
			t.Errorf("gauge round-trip %v != %v", back, v)
		}
	}

	// Every non-comment line must match "name value".
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"run.weighted_value":         "run_weighted_value",
		"trace.dropped_events_total": "trace_dropped_events_total",
		"ok_name":                    "ok_name",
		"9leading":                   "_leading",
		"a-b c":                      "a_b_c",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEventKindNames(t *testing.T) {
	kinds := []EventKind{EvIteration, EvForestComputed, EvForestCacheHit, EvForestInvalidated,
		EvTransferBooked, EvRequestSatisfied, EvItemDead, EvEpochReplan}
	seen := map[string]bool{}
	for _, k := range kinds {
		n := k.String()
		if n == "unknown" || seen[n] {
			t.Errorf("kind %d has bad or duplicate name %q", k, n)
		}
		seen[n] = true
	}
	if EventKind(200).String() != "unknown" {
		t.Error("out-of-range kind should be unknown")
	}
	if fmt.Sprint(ReasonConflict) != "conflict" {
		t.Error("reason name")
	}
}
