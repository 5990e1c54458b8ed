package serve

import (
	"strings"
	"testing"
	"time"
)

// TestLoadReportStats pins the percentile arithmetic and the summary
// stageload prints.
func TestLoadReportStats(t *testing.T) {
	r := &LoadReport{
		Requests: 8, Admitted: 5, Rejected: 3, Errors: 2,
		Overloaded: 4, Elapsed: 2 * time.Second,
		Latencies: []time.Duration{1, 2, 3, 4, 5, 6, 7, 8},
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
