package serve

import (
	"strings"
	"testing"
	"time"
)

// TestLoadReportStats pins the window/percentile arithmetic the soak gate
// and the stageload summary are built on.
func TestLoadReportStats(t *testing.T) {
	r := &LoadReport{
		Requests: 8, Admitted: 5, Rejected: 3, Errors: 2,
		Overloaded: 4, Elapsed: 2 * time.Second,
		Latencies: []time.Duration{1, 2, 3, 4, 5, 6, 7, 8},
		Ordered:   []time.Duration{2, 2, 4, 4, 6, 6, 8, 8},
	}
	means := r.WindowMeans(4)
	want := []time.Duration{2, 4, 6, 8}
	if len(means) != 4 {
		t.Fatalf("WindowMeans(4) = %v", means)
	}
	for i := range want {
		if means[i] != want[i] {
			t.Fatalf("WindowMeans(4) = %v, want %v", means, want)
		}
	}
	if got := r.Slope(4); got != 4 {
		t.Fatalf("Slope(4) = %v, want 4", got)
	}
	// More windows than samples degrade to one window per sample.
	if ms := r.WindowMeans(100); len(ms) != len(r.Ordered) {
		t.Fatalf("WindowMeans(100) has %d windows, want %d", len(ms), len(r.Ordered))
	}
	if ms := r.WindowMeans(0); ms != nil {
		t.Fatalf("WindowMeans(0) = %v, want nil", ms)
	}
	if got := (&LoadReport{}).Slope(4); got != 1 {
		t.Fatalf("empty Slope = %v, want 1", got)
	}
	if got := r.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v, want 1", got)
	}
	if got := r.Percentile(100); got != 8 {
		t.Fatalf("p100 = %v, want 8", got)
	}
	if got := (&LoadReport{}).Percentile(50); got != 0 {
		t.Fatalf("empty p50 = %v, want 0", got)
	}

	var sb strings.Builder
	r.Write(&sb)
	out := sb.String()
	for _, want := range []string{
		"requests   8", "admitted   5 (62.5%)", "rejected   3 (37.5%)",
		"errors     2", "overloaded 4", "latency", "throughput 4.0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	// The zero-request report must not divide by zero.
	var zb strings.Builder
	(&LoadReport{Elapsed: time.Second}).Write(&zb)
	if !strings.Contains(zb.String(), "admitted   0 (0.0%)") {
		t.Errorf("zero report:\n%s", zb.String())
	}
}

// TestGenSubmission: the synthetic stream is deterministic, in-range, and
// never sources and requests the same machine.
func TestGenSubmission(t *testing.T) {
	p := DefaultLoadParams(7, 100)
	info := Info{Machines: 10, Now: Instant(time.Hour), Horizon: Instant(24 * time.Hour)}
	for i := 0; i < 100; i++ {
		a, b := GenSubmission(p, info, i), GenSubmission(p, info, i)
		if a.Name != b.Name || a.SizeBytes != b.SizeBytes ||
			a.Sources[0] != b.Sources[0] || a.Requests[0] != b.Requests[0] {
			t.Fatalf("submission %d not deterministic: %+v vs %+v", i, a, b)
		}
		if a.Sources[0].Machine == a.Requests[0].Machine {
			t.Fatalf("submission %d: source == destination %d", i, a.Sources[0].Machine)
		}
		if a.SizeBytes < p.SizeMin || a.SizeBytes > p.SizeMax {
			t.Fatalf("submission %d: size %d outside [%d, %d]", i, a.SizeBytes, p.SizeMin, p.SizeMax)
		}
		rq := a.Requests[0]
		if rq.Deadline < info.Now+Instant(p.SlackMin) || rq.Deadline > info.Horizon {
			t.Fatalf("submission %d: deadline %v outside slack/horizon", i, rq.Deadline)
		}
		if rq.Priority < 0 || rq.Priority > p.MaxPriority {
			t.Fatalf("submission %d: priority %d", i, rq.Priority)
		}
	}
	// A tight horizon clamps the deadline.
	tight := Info{Machines: 3, Now: 0, Horizon: Instant(time.Minute)}
	if d := GenSubmission(p, tight, 0).Requests[0].Deadline; d != tight.Horizon {
		t.Fatalf("deadline %v not clamped to horizon %v", d, tight.Horizon)
	}
}
