package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"datastaging/internal/core"
	"datastaging/internal/dynamic"
	"datastaging/internal/gen"
	"datastaging/internal/model"
	"datastaging/internal/obs"
	"datastaging/internal/obs/introspect"
	"datastaging/internal/scenario"
	"datastaging/internal/simtime"
	"datastaging/internal/testnet"
	"datastaging/internal/validator"
)

func cfgC4(o *obs.Obs) core.Config {
	return core.Config{
		Heuristic: core.FullPathOneDest,
		Criterion: core.C4,
		EU:        core.EUFromLog10(2),
		Weights:   model.Weights1x10x100,
		Obs:       o,
	}
}

// subFromItem converts a scenario item back into the submission that would
// create it, for trace replay.
func subFromItem(it model.Item) Submission {
	sub := Submission{Name: it.Name, SizeBytes: it.SizeBytes}
	for _, src := range it.Sources {
		sub.Sources = append(sub.Sources, SourceSpec{
			Machine: int(src.Machine), Available: Instant(src.Available),
		})
	}
	for _, rq := range it.Requests {
		sub.Requests = append(sub.Requests, RequestSpec{
			Machine:  int(rq.Machine),
			Deadline: Instant(rq.Deadline),
			Priority: int(rq.Priority),
		})
	}
	return sub
}

// TestHTTPEquivalence is the end-to-end contract: replaying an arrival
// trace through the HTTP API in virtual-clock mode yields a final schedule
// that is validator-clean and bit-identical — transfers and weighted
// objective — to dynamic.Simulate replaying the same trace offline.
func TestHTTPEquivalence(t *testing.T) {
	sc := testnet.Generate(func() gen.Params {
		p := gen.Default()
		p.Machines = gen.IntRange{Min: 6, Max: 6}
		p.RequestsPerMachine = gen.IntRange{Min: 6, Max: 6}
		return p
	}(), 7)

	// The trace: item i arrives at (i mod 3) * 20 min. Reorder items so
	// arrival times are non-decreasing, because the service numbers items
	// in submission order.
	type timed struct {
		item    model.Item
		arrival simtime.Instant
	}
	arrivals := make([]timed, len(sc.Items))
	for i, it := range sc.Items {
		arrivals[i] = timed{it, simtime.At(time.Duration(i%3) * 20 * time.Minute)}
	}
	sort.SliceStable(arrivals, func(a, b int) bool { return arrivals[a].arrival < arrivals[b].arrival })
	var events []dynamic.Event
	for i := range arrivals {
		arrivals[i].item.ID = model.ItemID(i)
		sc.Items[i] = arrivals[i].item
		if arrivals[i].arrival > 0 {
			events = append(events, dynamic.Event{
				At: arrivals[i].arrival, Kind: dynamic.ItemRelease, Item: model.ItemID(i),
			})
		}
	}

	want, err := dynamic.Simulate(sc, cfgC4(nil), events)
	if err != nil {
		t.Fatal(err)
	}
	var wantValue float64
	for id := range want.Satisfied {
		wantValue += model.Weights1x10x100.Of(sc.Request(id).Priority)
	}

	// Boot the service over the same network with an empty request book and
	// replay the trace through HTTP.
	empty := *sc
	empty.Items = nil
	eng, err := New(&empty, Options{
		Config:       cfgC4(obs.New()),
		VirtualClock: true,
		QueueCap:     len(sc.Items) + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(eng.Handler())
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	ctx := context.Background()

	for i := range arrivals {
		at := arrivals[i].arrival
		if i == 0 || arrivals[i-1].arrival != at {
			if _, err := c.Advance(ctx, Instant(at)); err != nil {
				t.Fatalf("advance to %v: %v", at, err)
			}
		}
		view, err := c.Submit(ctx, subFromItem(arrivals[i].item), false)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if view.Status != StatusQueued {
			t.Fatalf("submission %d: status %q before its epoch", i, view.Status)
		}
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}

	got, err := c.Schedule(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.WeightedValue != wantValue {
		t.Errorf("weighted value %v over HTTP, %v from Simulate", got.WeightedValue, wantValue)
	}
	if got.Satisfied != len(want.Satisfied) {
		t.Errorf("satisfied %d over HTTP, %d from Simulate", got.Satisfied, len(want.Satisfied))
	}
	if len(got.Transfers) != len(want.Transfers) {
		t.Fatalf("transfers %d over HTTP, %d from Simulate", len(got.Transfers), len(want.Transfers))
	}
	for i := range want.Transfers {
		if got.Transfers[i] != want.Transfers[i] {
			t.Fatalf("transfer %d: %+v over HTTP, %+v from Simulate",
				i, got.Transfers[i], want.Transfers[i])
		}
	}
	if err := validator.Validate(eng.Scenario(), got.Transfers); err != nil {
		t.Errorf("service schedule failed independent validation: %v", err)
	}

	// Every admitted ticket exposes a non-empty committed route; every
	// rejected one carries an explain reason.
	views := ticketSweep(t, c, len(arrivals))
	for _, v := range views {
		switch v.Status {
		case StatusAdmitted:
			if len(v.Route) == 0 {
				t.Errorf("ticket %s admitted with no route", v.ID)
			}
		case StatusRejected:
			for _, rv := range v.Requests {
				if rv.Status == StatusRejected && rv.Reason == "" {
					t.Errorf("ticket %s rejected without a reason", v.ID)
				}
			}
		default:
			t.Errorf("ticket %s still %q after the final flush", v.ID, v.Status)
		}
	}
}

func ticketSweep(t *testing.T, c *Client, n int) []TicketView {
	t.Helper()
	out := make([]TicketView, 0, n)
	for i := 0; i < n; i++ {
		v, err := c.Ticket(context.Background(), fmt.Sprintf("r-%d", i))
		if err != nil {
			t.Fatalf("ticket r-%d: %v", i, err)
		}
		out = append(out, v)
	}
	return out
}

// submitWait submits and blocks for the first verdict. In virtual-clock mode
// that verdict only comes once something advances the clock.
func submitWait(ctx context.Context, e *Engine, sub Submission) (*Ticket, error) {
	t, err := e.Submit(sub)
	if err != nil {
		return nil, err
	}
	select {
	case <-t.Done():
		return t, nil
	case <-ctx.Done():
		return t, ctx.Err()
	}
}

func lineSubmission(deadline time.Duration, pri int) Submission {
	return Submission{
		SizeBytes: 1024,
		Sources:   []SourceSpec{{Machine: 0}},
		Requests:  []RequestSpec{{Machine: 1, Deadline: Instant(simtime.At(deadline)), Priority: pri}},
	}
}

// narrowNet is a two-machine network whose single link opens at 60s and
// fits exactly one 1024-byte transfer per second.
func narrowNet() *scenario.Scenario {
	b := testnet.NewBuilder()
	ms := b.Machines(2, 1<<20)
	b.Link(ms[0], ms[1], 60*time.Second, 24*time.Hour, 8192)
	return b.Build("narrow")
}

// TestBackpressure: the intake queue bound sheds load with ErrOverloaded
// and counts it, both in-process and as HTTP 429 + Retry-After.
func TestBackpressure(t *testing.T) {
	o := obs.New()
	eng, err := New(narrowNet(), Options{
		Config:       cfgC4(o),
		VirtualClock: true,
		QueueCap:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := eng.Submit(lineSubmission(10*time.Minute, 0)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := eng.Submit(lineSubmission(10*time.Minute, 0)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overfull queue: got %v, want ErrOverloaded", err)
	}
	if n := o.Counter("serve.rejected_backpressure_total").Value(); n != 1 {
		t.Errorf("serve.rejected_backpressure_total = %d, want 1", n)
	}

	srv := httptest.NewServer(eng.Handler())
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	_, err = c.Submit(context.Background(), lineSubmission(10*time.Minute, 0), false)
	var st *ErrStatus
	if !errors.As(err, &st) || !st.IsOverloaded() {
		t.Fatalf("HTTP submit on full queue: got %v, want 429", err)
	}
	if st.RetryAfter <= 0 {
		t.Errorf("429 without Retry-After")
	}
	if n := o.Counter("serve.rejected_backpressure_total").Value(); n != 2 {
		t.Errorf("serve.rejected_backpressure_total = %d, want 2", n)
	}

	// Draining the backlog admits it: the queue was full, not the network —
	// the link serializes the two transfers well before the deadline.
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := o.Counter("serve.admitted_total").Value(); n != 2 {
		t.Errorf("serve.admitted_total = %d, want 2", n)
	}
}

// TestDrain: draining closes intake, completes the pending epoch, resolves
// every ticket, and stops the wall loop; the HTTP layer answers 503
// afterwards.
func TestDrain(t *testing.T) {
	eng, err := New(narrowNet(), Options{Config: cfgC4(obs.New())})
	if err != nil {
		t.Fatal(err)
	}
	var tickets []*Ticket
	for i := 0; i < 3; i++ {
		tk, err := eng.Submit(lineSubmission(10*time.Minute, 0))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := eng.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, tk := range tickets {
		select {
		case <-tk.Done():
		default:
			t.Fatalf("ticket %s unresolved after drain", tk.ID())
		}
		if v := tk.View(); v.Status == StatusQueued {
			t.Errorf("ticket %s still queued after drain", tk.ID())
		}
	}
	if _, err := eng.Submit(lineSubmission(10*time.Minute, 0)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain: got %v, want ErrDraining", err)
	}
	// Drain is idempotent, and the wall loop is gone.
	if err := eng.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case <-eng.stopped:
	default:
		t.Fatal("wall loop still running after Drain returned")
	}

	srv := httptest.NewServer(eng.Handler())
	defer srv.Close()
	_, err = (&Client{BaseURL: srv.URL}).Submit(ctx, lineSubmission(time.Minute, 0), false)
	var st *ErrStatus
	if !errors.As(err, &st) || st.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining over HTTP: got %v, want 503", err)
	}
}

// TestWallClockWorkConserving: with default options the wall loop runs an
// epoch as soon as the engine is idle, so sequential submitters each get
// their own epoch at once and nobody sleeps out a coalescing window (at
// 25 ms per lone arrival these 200 would need 5 s).
func TestWallClockWorkConserving(t *testing.T) {
	const n = 200
	o := obs.New()
	eng, err := New(narrowNet(), Options{Config: cfgC4(o)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	defer eng.Drain(ctx)
	begin := time.Now()
	for i := 0; i < n; i++ {
		tk, err := submitWait(ctx, eng, lineSubmission(20*time.Hour, int(model.High)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if v := tk.View(); v.Status == StatusQueued {
			t.Fatalf("ticket %s still queued after its verdict wait", tk.ID())
		}
	}
	if took := time.Since(begin); took > 2*time.Second {
		t.Errorf("%d sequential decisions took %v, want under 2s", n, took)
	}
	snap := o.Snapshot()
	if got := snap.Counters["serve.epochs_total"]; got != n {
		t.Errorf("serve.epochs_total = %d, want %d (one epoch per lone arrival)", got, n)
	}
	if h := snap.Histograms["serve.batch_size"]; h.Count != n || h.Sum != n {
		t.Errorf("serve.batch_size count %d sum %v, want %d epochs of size 1", h.Count, h.Sum, n)
	}
	if h := snap.Histograms["serve.layer_queue_wait_seconds"]; h.Count != n {
		t.Errorf("serve.layer_queue_wait_seconds count = %d, want one observation per ticket (%d)", h.Count, n)
	}
}

// TestHTTPAPI covers the remaining HTTP surface: validation errors, 404s,
// info, the advance guard rails, and the introspection mount.
func TestHTTPAPI(t *testing.T) {
	o := obs.New()
	intro := introspect.NewServer(o)
	eng, err := New(narrowNet(), Options{
		Config:       cfgC4(o),
		VirtualClock: true,
		Intro:        intro,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(eng.Handler())
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	ctx := context.Background()

	// The virtual clock decides nothing until an advance flushes the batch.
	view, err := c.Submit(ctx, lineSubmission(10*time.Minute, int(model.Medium)), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Advance(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if view, err = c.Ticket(ctx, view.ID); err != nil {
		t.Fatal(err)
	}
	if view.Status != StatusAdmitted {
		t.Fatalf("submission %q, want admitted", view.Status)
	}
	if view.Requests[0].Completion <= 0 {
		t.Error("admitted verdict has no completion instant")
	}

	if _, err := c.Ticket(ctx, "nope"); err == nil {
		t.Error("unknown ticket id did not 404")
	}
	var st *ErrStatus
	if _, err := c.Submit(ctx, Submission{}, false); !errors.As(err, &st) || st.Code != http.StatusBadRequest {
		t.Errorf("empty submission: got %v, want 400", err)
	}
	if _, err := c.Advance(ctx, Instant(-time.Second)); err == nil {
		t.Error("backwards advance accepted")
	}

	info, err := c.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Machines != 2 || !info.Virtual || info.Items != 1 {
		t.Errorf("info = %+v", info)
	}

	for _, path := range []string{"/healthz", "/metrics", "/runinfo", "/v1/schedule"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %d", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(sb.String(), "serve_admitted_total 1") {
		t.Errorf("/metrics does not report serve_admitted_total 1:\n%s", sb.String())
	}
	// Wall-time layer figures stay out of virtual-clock /metrics, which must
	// replay deterministically.
	if !strings.Contains(sb.String(), "serve_layer_queue_wait_seconds_count 0") {
		t.Errorf("/metrics reports a queue wait under the virtual clock:\n%s", sb.String())
	}
}

// TestInstantJSON: the wire Instant accepts both encodings and emits
// nanoseconds.
func TestInstantJSON(t *testing.T) {
	var in Instant
	if err := json.Unmarshal([]byte(`"90m"`), &in); err != nil || in.Instant() != simtime.At(90*time.Minute) {
		t.Errorf(`"90m" -> %v, %v`, in, err)
	}
	if err := json.Unmarshal([]byte(`5400000000000`), &in); err != nil || in.Instant() != simtime.At(90*time.Minute) {
		t.Errorf(`5400000000000 -> %v, %v`, in, err)
	}
	if err := json.Unmarshal([]byte(`"bogus"`), &in); err == nil {
		t.Error("bogus duration accepted")
	}
	b, err := json.Marshal(Instant(simtime.At(time.Second)))
	if err != nil || string(b) != "1000000000" {
		t.Errorf("marshal: %s, %v", b, err)
	}
}

// TestSubmissionValidation: malformed submissions never reach the queue.
func TestSubmissionValidation(t *testing.T) {
	eng, err := New(narrowNet(), Options{Config: cfgC4(nil), VirtualClock: true})
	if err != nil {
		t.Fatal(err)
	}
	bad := []Submission{
		{},
		{SizeBytes: -1, Sources: []SourceSpec{{Machine: 0}}, Requests: []RequestSpec{{Machine: 1, Deadline: 1}}},
		{SizeBytes: 1, Requests: []RequestSpec{{Machine: 1, Deadline: 1}}},
		{SizeBytes: 1, Sources: []SourceSpec{{Machine: 0}}},
		{SizeBytes: 1, Sources: []SourceSpec{{Machine: 9}}, Requests: []RequestSpec{{Machine: 1, Deadline: 1}}},
		{SizeBytes: 1, Sources: []SourceSpec{{Machine: 0}, {Machine: 0}}, Requests: []RequestSpec{{Machine: 1, Deadline: 1}}},
		{SizeBytes: 1, Sources: []SourceSpec{{Machine: 0}}, Requests: []RequestSpec{{Machine: 0, Deadline: 1}}},
		{SizeBytes: 1, Sources: []SourceSpec{{Machine: 0}}, Requests: []RequestSpec{{Machine: 1, Deadline: 1}, {Machine: 1, Deadline: 1}}},
		{SizeBytes: 1, Sources: []SourceSpec{{Machine: 0}}, Requests: []RequestSpec{{Machine: 1, Deadline: 1, Priority: -1}}},
		{SizeBytes: 1, Sources: []SourceSpec{{Machine: 0}}, Requests: []RequestSpec{{Machine: 1, Deadline: 0}}},
	}
	for i, sub := range bad {
		if _, err := eng.Submit(sub); err == nil {
			t.Errorf("bad submission %d accepted: %+v", i, sub)
		}
	}
	if n := eng.Info().Queue; n != 0 {
		t.Errorf("queue depth %d after rejected submissions", n)
	}
}
