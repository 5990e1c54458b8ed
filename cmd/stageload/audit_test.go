package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"datastaging/internal/core"
	"datastaging/internal/model"
	"datastaging/internal/obs"
	"datastaging/internal/obs/lifecycle"
	"datastaging/internal/serve"
	"datastaging/internal/testnet"
)

// auditedService is testService with the lifecycle recorder attached, so
// /v1/audit answers and -class-summary has a stream to summarize.
func auditedService(t *testing.T) *httptest.Server {
	t.Helper()
	b := testnet.NewBuilder()
	ms := b.Machines(4, 1<<30)
	for i := 0; i < 3; i++ {
		b.Link(ms[i], ms[i+1], 0, 24*time.Hour, 8<<20)
		b.Link(ms[i+1], ms[i], 0, 24*time.Hour, 8<<20)
	}
	o := obs.New()
	eng, err := serve.New(b.Build("loadtest"), serve.Options{
		Config: core.Config{
			Heuristic: core.FullPathOneDest,
			Criterion: core.C4,
			EU:        core.EUFromLog10(2),
			Weights:   model.Weights1x10x100,
			Obs:       o,
		},
		TimeScale: 3600,
		Audit:     lifecycle.New(lifecycle.Options{Obs: o}),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(eng.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = eng.Drain(ctx)
	})
	return srv
}

// TestClassSummary drives a synthetic load and checks the per-class audit
// table appended by -class-summary.
func TestClassSummary(t *testing.T) {
	srv := auditedService(t)
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-url", srv.URL, "-n", "24", "-workers", "4", "-seed", "2",
		"-slack-min", "4h", "-slack-max", "12h", "-class-summary",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{"class", "adm rate", "p50 decide", "p99 decide"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("class summary missing %q:\n%s", want, out.String())
		}
	}
	// At least one priority-class row made it through the audit stream.
	if !strings.Contains(out.String(), "low") && !strings.Contains(out.String(), "normal") &&
		!strings.Contains(out.String(), "high") {
		t.Errorf("class summary has no class rows:\n%s", out.String())
	}
}

// TestClassSummaryNeedsAudit pins the helpful failure when the target runs
// without auditing: 404 from /v1/audit becomes a "run stagesvc with -audit"
// error, not a bare HTTP status.
func TestClassSummaryNeedsAudit(t *testing.T) {
	srv := testService(t)
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-url", srv.URL, "-n", "4", "-seed", "2",
		"-slack-min", "4h", "-slack-max", "12h", "-class-summary",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "-audit") {
		t.Fatalf("want an enable-audit hint, got %v", err)
	}
}
