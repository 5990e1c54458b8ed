package lifecycle

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"datastaging/internal/obs"
)

func decisionRecord(ticket string, class int, latS float64) *Record {
	return &Record{
		Kind:   KindDecision,
		Ticket: ticket,
		Item:   7,
		Timeline: []Hop{
			{Stage: StageReceived, V: 1000},
			{Stage: StageEnqueued, V: 1000},
			{Stage: StageEpochStart, V: 2000, WallS: latS / 2},
			{Stage: StagePlanned, V: 2000, WallS: latS * 0.75},
			{Stage: StageDecided, V: 2000, WallS: latS},
			{Stage: StageSettled, V: 2000, WallS: latS},
		},
		EpochAt: 2000,
		Epoch:   1,
		Status:  "admitted",
		Requests: []RequestOutcome{{
			Item: 7, Index: 0, Machine: 3, Priority: class,
			Status: "admitted", Deadline: 9000, Completion: 5000, BlamedLink: -1,
		}},
		DecisionLatencyS: latS,
	}
}

func TestAppendStoreAndSink(t *testing.T) {
	var sink bytes.Buffer
	o := obs.New()
	r := New(Options{Obs: o, Sink: &sink})

	r.Append(decisionRecord("r-0", 2, 0.010))
	r.Append(decisionRecord("r-1", 0, 0.020))
	rev := decisionRecord("r-0", 2, 0.030)
	rev.Kind = KindRevision
	r.Append(rev)

	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if got := r.ForTicket("r-0"); len(got) != 2 ||
		got[0].Kind != KindDecision || got[1].Kind != KindRevision {
		t.Fatalf("ForTicket(r-0) = %+v, want decision then revision", got)
	}
	if got := r.ForTicket("nope"); got != nil {
		t.Fatalf("ForTicket(nope) = %+v, want nil", got)
	}
	for i, rec := range r.Records() {
		if rec.Seq != i {
			t.Errorf("record %d has seq %d", i, rec.Seq)
		}
		if rec.Schema != SchemaVersion {
			t.Errorf("record %d has schema %d", i, rec.Schema)
		}
		if err := rec.Validate(); err != nil {
			t.Errorf("record %d invalid: %v", i, err)
		}
	}

	// The sink stream and the bulk export are byte-identical.
	var bulk bytes.Buffer
	if err := r.WriteJSONL(&bulk); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink.Bytes(), bulk.Bytes()) {
		t.Errorf("sink stream != bulk export:\n%s\n----\n%s", sink.String(), bulk.String())
	}
	if err := r.SinkErr(); err != nil {
		t.Errorf("SinkErr = %v", err)
	}

	// And the stream parses back, validated line by line.
	recs, err := ReadJSONL(&bulk)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("ReadJSONL returned %d records, want 3", len(recs))
	}

	if got := o.Counter("audit.records_total").Value(); got != 3 {
		t.Errorf("audit.records_total = %d, want 3", got)
	}
}

func TestDeterministicOmitsWallClock(t *testing.T) {
	var sink bytes.Buffer
	r := New(Options{Sink: &sink})
	r.SetDeterministic(true)
	r.Append(decisionRecord("r-0", 1, 0.5))

	line := sink.String()
	for _, banned := range []string{"wallS", "decisionLatencyS"} {
		if strings.Contains(line, banned) {
			t.Errorf("deterministic record leaks %q: %s", banned, line)
		}
	}
	// The latency the aggregates observe falls back to the virtual wait.
	rec := r.Records()[0]
	want := float64(rec.EpochAt-rec.Timeline[0].V) / float64(time.Second)
	if got := rec.DecisionLatency(); got != want {
		t.Errorf("deterministic DecisionLatency = %v, want virtual wait %v", got, want)
	}
}

func TestClassAggregates(t *testing.T) {
	o := obs.New()
	r := New(Options{Obs: o})
	// Two class-2 decisions (10ms, 30ms) and one class-0 (20ms).
	r.Append(decisionRecord("r-0", 2, 0.010))
	r.Append(decisionRecord("r-1", 2, 0.030))
	r.Append(decisionRecord("r-2", 0, 0.020))

	snap := o.Snapshot()
	h2, ok := snap.Histograms["serve.decision_latency_class2_seconds"]
	if !ok || h2.Count != 2 {
		t.Fatalf("class-2 histogram missing or wrong count: %+v", h2)
	}
	if h2.Sum != 0.010+0.030 {
		t.Errorf("class-2 histogram sum = %v, want 0.04", h2.Sum)
	}
	if h0, ok := snap.Histograms["serve.decision_latency_class0_seconds"]; !ok || h0.Count != 1 || h0.Sum != 0.020 {
		t.Errorf("class-0 histogram missing or wrong: %+v", h0)
	}
}

func TestSummarize(t *testing.T) {
	recs := []Record{}
	add := func(r *Record) {
		r.Schema = SchemaVersion
		r.Seq = len(recs)
		recs = append(recs, *r)
	}
	add(decisionRecord("r-0", 2, 0.010)) // admitted
	rej := decisionRecord("r-1", 2, 0.030)
	rej.Status = "rejected"
	rej.Requests[0].Status = "rejected"
	add(rej)
	late := decisionRecord("r-2", 0, 0.020) // rejected...
	late.Status = "rejected"
	late.Requests[0].Status = "rejected"
	add(late)
	rev := decisionRecord("r-2", 0, 0.040)
	rev.Kind = KindRevision
	add(rev) // ...then admitted late: final state wins
	add(&Record{Kind: KindBackpressure, Item: -1, Status: "backpressure",
		Timeline: []Hop{{Stage: StageReceived, V: 5}}, RetryAfterS: 1})

	sums := Summarize(recs)
	if len(sums) != 2 {
		t.Fatalf("got %d classes, want 2: %+v", len(sums), sums)
	}
	c0, c2 := sums[0], sums[1]
	if c0.Class != 0 || c2.Class != 2 {
		t.Fatalf("classes out of order: %+v", sums)
	}
	if c0.Requests != 1 || c0.Admitted != 1 || c0.Rejected != 0 {
		t.Errorf("class 0 = %+v, want 1 request admitted late", c0)
	}
	if c2.Requests != 2 || c2.Admitted != 1 || c2.Rejected != 1 {
		t.Errorf("class 2 = %+v, want 1 admitted + 1 rejected", c2)
	}
	if c2.AdmissionRate != 0.5 {
		t.Errorf("class 2 admission rate %v, want 0.5", c2.AdmissionRate)
	}
	if c2.P50 <= 0 || c2.P99 < c2.P50 {
		t.Errorf("class 2 quantiles out of order: p50=%v p99=%v", c2.P50, c2.P99)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	good := decisionRecord("r-0", 0, 0.01)
	good.Schema = SchemaVersion
	if err := good.Validate(); err != nil {
		t.Fatalf("good record invalid: %v", err)
	}
	cases := map[string]func(*Record){
		"bad schema":        func(r *Record) { r.Schema = 99 },
		"bad kind":          func(r *Record) { r.Kind = "whatever" },
		"bad status":        func(r *Record) { r.Status = "maybe" },
		"preempted status":  func(r *Record) { r.Status = "preempted" },
		"preempted request": func(r *Record) { r.Requests[0].Status = "preempted" },
		"empty timeline":    func(r *Record) { r.Timeline = nil },
		"unnamed stage":     func(r *Record) { r.Timeline[2].Stage = "" },
		"virtual regress":   func(r *Record) { r.Timeline[2].V = 10 },
		"wall regress":      func(r *Record) { r.Timeline[3].WallS = 0.0001 },
		"missing ticket":    func(r *Record) { r.Ticket = "" },
		"bad request state": func(r *Record) { r.Requests[0].Status = "meh" },
	}
	for name, mutate := range cases {
		rec := decisionRecord("r-0", 0, 0.01)
		rec.Schema = SchemaVersion
		mutate(rec)
		if err := rec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the mutant", name)
		}
	}
}

// TestDisabledRecorderZeroAlloc pins the zero-cost-when-disabled contract:
// every hook the admission hot path calls on a nil recorder must not
// allocate.
func TestDisabledRecorderZeroAlloc(t *testing.T) {
	var r *Recorder
	rec := decisionRecord("r-0", 0, 0.01)
	allocs := testing.AllocsPerRun(100, func() {
		if r.Enabled() {
			t.Fatal("nil recorder claims enabled")
		}
		r.Append(rec)
		_ = r.ForTicket("r-0")
		_ = r.Records()
		_ = r.Len()
		_ = r.SinkErr()
	})
	if allocs != 0 {
		t.Errorf("nil recorder allocates %.1f per run, want 0", allocs)
	}
}
