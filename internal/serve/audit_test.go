package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"datastaging/internal/model"
	"datastaging/internal/obs"
	"datastaging/internal/obs/lifecycle"
	"datastaging/internal/simtime"
)

// getTrace fetches one submission's audit trail from /v1/requests/{id}/trace.
func getTrace(ctx context.Context, c *Client, id string) (TraceView, error) {
	var v TraceView
	err := c.do(ctx, http.MethodGet, "/v1/requests/"+id+"/trace", nil, &v)
	return v, err
}

// auditedEngine builds a virtual-clock engine over the narrow network with
// auditing on, streaming to sink.
func auditedEngine(t *testing.T, o *obs.Obs, sink *bytes.Buffer, opts Options) *Engine {
	t.Helper()
	opts.Config = cfgC4(o)
	opts.VirtualClock = true
	opts.Audit = lifecycle.New(lifecycle.Options{Obs: o, Sink: sink})
	eng, err := New(narrowNet(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestAuditTraceVerdicts drives engines through every verdict shape —
// admitted, rejected-with-blame, a late admission (a rejected decision
// revised to admitted), and a 429 backpressure shed — and checks each
// shape's audit trail over HTTP.
func TestAuditTraceVerdicts(t *testing.T) {
	o := obs.New()
	var sink bytes.Buffer
	eng := auditedEngine(t, o, &sink, Options{QueueCap: 2})

	// Epoch 30s: r-0 books the link's only feasible slot before 61.5s.
	if err := eng.Advance(simtime.At(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Submit(lineSubmission(61500*time.Millisecond, int(model.Low))); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	// r-1 wants the same slot once it is gone: rejected with an explain
	// reason, even at a higher priority — an admit is final.
	if _, err := eng.Submit(lineSubmission(61500*time.Millisecond, int(model.High))); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	// Fill the intake queue and shed one submission at the door.
	for i := 0; i < 2; i++ {
		if _, err := eng.Submit(lineSubmission(10*time.Minute, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Submit(lineSubmission(10*time.Minute, 0)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overfull queue: got %v, want ErrOverloaded", err)
	}

	srv := httptest.NewServer(eng.Handler())
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	ctx := context.Background()

	// Admitted: completion instant committed, full lifecycle timeline.
	tr, err := getTrace(ctx, c, "r-0")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 1 || tr.Records[0].Status != string(StatusAdmitted) {
		t.Fatalf("r-0 trace = %+v, want one admitted decision", tr.Records)
	}
	adm := tr.Records[0]
	if adm.Requests[0].Completion <= 0 {
		t.Error("admitted outcome has no completion instant")
	}
	wantStages := []string{
		lifecycle.StageReceived, lifecycle.StageEnqueued, lifecycle.StageEpochStart,
		lifecycle.StagePlanned, lifecycle.StageDecided, lifecycle.StageSettled,
	}
	if len(adm.Timeline) != len(wantStages) {
		t.Fatalf("timeline %+v, want stages %v", adm.Timeline, wantStages)
	}
	for i, hop := range adm.Timeline {
		if hop.Stage != wantStages[i] {
			t.Errorf("timeline[%d] = %q, want %q", i, hop.Stage, wantStages[i])
		}
	}
	if adm.Timeline[0].V != int64(simtime.At(30*time.Second)) || adm.EpochAt != adm.Timeline[2].V {
		t.Errorf("timeline instants wrong: %+v", adm.Timeline)
	}
	if adm.BatchSize != 1 || adm.QueueDepth != 0 {
		t.Errorf("r-0 batch size %d / queue depth %d, want 1 / 0", adm.BatchSize, adm.QueueDepth)
	}

	// Rejected: the explain blame survives into the audit record.
	tr, err = getTrace(ctx, c, "r-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 1 || tr.Records[0].Status != string(StatusRejected) {
		t.Fatalf("r-1 trace = %+v, want one rejected decision", tr.Records)
	}
	if tr.Records[0].Requests[0].Reason == "" {
		t.Error("rejected outcome has no explain reason")
	}

	// Backpressure: no ticket, so the shed shows up in the bulk stream.
	recs, err := c.Audit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var shed *lifecycle.Record
	for i := range recs {
		if recs[i].Kind == lifecycle.KindBackpressure {
			if shed != nil {
				t.Fatal("more than one backpressure record")
			}
			shed = &recs[i]
		}
	}
	if shed == nil {
		t.Fatal("no backpressure record in the audit stream")
	}
	if shed.QueueDepth != 2 || shed.RetryAfterS != retryAfterSeconds || shed.Item != -1 {
		t.Errorf("backpressure record = %+v", shed)
	}

	// Virtual-clock engines are deterministic: no wall-clock field may leak
	// into the stream.
	if strings.Contains(sink.String(), "wallS") || strings.Contains(sink.String(), "decisionLatencyS") {
		t.Error("deterministic audit stream leaks wall-clock fields")
	}
	// Unknown tickets 404.
	if _, err := getTrace(ctx, c, "nope"); err == nil {
		t.Error("trace of unknown ticket did not fail")
	}

	// Late admission: the narrow network never gains room it once lacked,
	// so the shape comes from the oversubscribed stream, whose unsettled
	// pass late-admits. Its first ticket that was rejected and later
	// admitted must show both records over HTTP.
	base, arrivals := offerStream(t)
	se := newStreamEngine(t, base)
	for _, a := range arrivals {
		se.submitFlush(t, a)
	}
	srv = httptest.NewServer(se.Handler())
	defer srv.Close()
	c = &Client{BaseURL: srv.URL}
	recs, err = c.Audit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	decided := make(map[string]string)
	late := ""
	for _, r := range recs {
		if r.Kind == lifecycle.KindDecision {
			decided[r.Ticket] = r.Status
		} else if r.Kind == lifecycle.KindRevision && r.Status == string(StatusAdmitted) &&
			decided[r.Ticket] == string(StatusRejected) {
			late = r.Ticket
			break
		}
	}
	if late == "" {
		t.Fatal("stream late-admitted no rejected ticket")
	}
	tr, err = getTrace(ctx, c, late)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) < 2 {
		t.Fatalf("%s trace has %d records, want decision+revision: %+v", late, len(tr.Records), tr.Records)
	}
	dec, rev := tr.Records[0], tr.Records[1]
	if dec.Kind != lifecycle.KindDecision || dec.Status != string(StatusRejected) {
		t.Errorf("%s first record = %s/%s, want decision/rejected", late, dec.Kind, dec.Status)
	}
	if rev.Kind != lifecycle.KindRevision || rev.Status != string(StatusAdmitted) {
		t.Errorf("%s second record = %s/%s, want revision/admitted", late, rev.Kind, rev.Status)
	}
	if rev.Epoch <= dec.Epoch {
		t.Errorf("%s epochs = %d then %d, want the revision later", late, dec.Epoch, rev.Epoch)
	}
	completed := false
	for _, rq := range rev.Requests {
		if rq.Status == string(StatusAdmitted) && rq.Completion > 0 {
			completed = true
		}
	}
	if !completed {
		t.Errorf("%s revision admits no request with a completion instant: %+v", late, rev.Requests)
	}
}

// TestAuditDisabled404: without a recorder the trace and audit endpoints
// answer 404 and the engine carries no recorder.
func TestAuditDisabled404(t *testing.T) {
	eng, err := New(narrowNet(), Options{Config: cfgC4(nil), VirtualClock: true})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Audit().Enabled() {
		t.Fatal("engine without Options.Audit reports auditing enabled")
	}
	if _, err := eng.Submit(lineSubmission(10*time.Minute, 0)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(eng.Handler())
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	var st *ErrStatus
	if _, err := getTrace(context.Background(), c, "r-0"); !errors.As(err, &st) || st.Code != 404 {
		t.Errorf("trace on unaudited engine: got %v, want 404", err)
	}
	if _, err := c.Audit(context.Background()); !errors.As(err, &st) || st.Code != 404 {
		t.Errorf("audit on unaudited engine: got %v, want 404", err)
	}
}

// TestAuditByteStability: two engines fed the identical virtual-clock
// workload emit byte-identical audit streams.
func TestAuditByteStability(t *testing.T) {
	run := func() *bytes.Buffer {
		var sink bytes.Buffer
		eng := auditedEngine(t, obs.New(), &sink, Options{})
		if _, err := eng.Submit(lineSubmission(61500*time.Millisecond, int(model.Low))); err != nil {
			t.Fatal(err)
		}
		if err := eng.Advance(simtime.At(30 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Submit(lineSubmission(61500*time.Millisecond, int(model.High))); err != nil {
			t.Fatal(err)
		}
		if err := eng.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		return &sink
	}
	a, b := run(), run()
	if a.Len() == 0 {
		t.Fatal("empty audit stream")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("audit streams differ across identical runs:\n%s\n----\n%s", a.String(), b.String())
	}
}

// TestAuditMetricsAgreement runs a wall-clock engine and checks the /metrics
// per-class latency histogram agrees with the audit stream's latencies —
// same values, same buckets, so their quantiles match exactly — and
// likewise the queue-wait layer histogram with the audit timeline.
func TestAuditMetricsAgreement(t *testing.T) {
	o := obs.New()
	var sink bytes.Buffer
	rec := lifecycle.New(lifecycle.Options{Obs: o, Sink: &sink})
	eng, err := New(narrowNet(), Options{
		Config:    cfgC4(o),
		TimeScale: 86400,
		Audit:     rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Drain(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const n = 4
	for i := 0; i < n; i++ {
		if _, err := submitWait(ctx, eng, lineSubmission(20*time.Hour, int(model.High))); err != nil {
			t.Fatal(err)
		}
	}

	class := int(model.High)
	var lats []float64
	var queueWait float64
	for _, r := range rec.Records() {
		if r.Kind != lifecycle.KindDecision {
			continue
		}
		if r.DecisionLatencyS <= 0 {
			t.Fatalf("wall-clock decision without latency: %+v", r)
		}
		lats = append(lats, r.DecisionLatency())
		for _, hop := range r.Timeline {
			if hop.Stage == lifecycle.StageEpochStart {
				queueWait += hop.WallS
			}
		}
	}
	if len(lats) != n {
		t.Fatalf("%d decision records, want %d", len(lats), n)
	}
	snap := o.Snapshot()
	// The queue-wait histogram and the audit timeline share their two
	// stamps, so the live layer figure is the audit-derived one exactly.
	if h := snap.Histograms["serve.layer_queue_wait_seconds"]; h.Count != n || h.Sum != queueWait {
		t.Errorf("serve.layer_queue_wait_seconds count %d sum %v, audit timeline says %d waits summing to %v",
			h.Count, h.Sum, n, queueWait)
	}
	name := fmt.Sprintf("serve.decision_latency_class%d_seconds", class)
	h, ok := snap.Histograms[name]
	if !ok || h.Count != n {
		t.Fatalf("histogram %s holds %d observations (present %v), want %d", name, h.Count, ok, n)
	}
	derived := obs.SnapshotValues(obs.DurationBuckets, lats)
	for _, p := range []float64{0.50, 0.99} {
		if got, want := h.Quantile(p), derived.Quantile(p); got != want {
			t.Errorf("%s p%v = %v but audit-derived quantile = %v", name, p*100, got, want)
		}
	}
}
