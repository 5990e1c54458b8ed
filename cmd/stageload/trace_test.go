package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"datastaging/internal/core"
	"datastaging/internal/model"
	"datastaging/internal/serve"
	"datastaging/internal/testnet"
	"datastaging/internal/workload"
)

// virtualService boots an in-process virtual-clock service over a small
// line network, the target trace replay needs.
func virtualService(t *testing.T, maxBatch int) *httptest.Server {
	t.Helper()
	b := testnet.NewBuilder()
	ms := b.Machines(4, 1<<30)
	for i := 0; i < 3; i++ {
		b.Link(ms[i], ms[i+1], 0, 24*time.Hour, 8<<20)
		b.Link(ms[i+1], ms[i], 0, 24*time.Hour, 8<<20)
	}
	eng, err := serve.New(b.Build("tracetest"), serve.Options{
		Config: core.Config{
			Heuristic: core.FullPathOneDest,
			Criterion: core.C4,
			EU:        core.EUFromLog10(2),
			Weights:   model.Weights1x10x100,
		},
		VirtualClock: true,
		MaxBatch:     maxBatch,
		QueueCap:     maxBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(eng.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// writeTestTrace compiles a two-hour trace over the given machine count and
// writes it to a temporary file.
func writeTestTrace(t *testing.T, machines int) (string, int) {
	t.Helper()
	spec := workload.Spec{Name: "cli", Seed: 5, Phases: []workload.Phase{{
		Name: "only", Duration: 2 * time.Hour, PerHour: 8,
		PriorityWeights: []float64{1, 1, 1},
		SizeMinBytes:    1 << 20, SizeMaxBytes: 4 << 20,
		SlackMin: 2 * time.Hour, SlackMax: 6 * time.Hour,
	}}}
	arrivals, err := spec.Compile(machines)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cli.trace.json")
	if err := workload.WriteTraceFile(path, workload.NewTrace(spec.Name, machines, &spec, arrivals)); err != nil {
		t.Fatal(err)
	}
	return path, len(arrivals)
}

// TestTraceMode replays a canonical trace through the CLI and checks the
// summary and the -min-admitted gate against it.
func TestTraceMode(t *testing.T) {
	path, n := writeTestTrace(t, 4)
	srv := virtualService(t, n+1)
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-url", srv.URL, "-trace", path, "-min-admitted", "1",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{"trace      cli", "admitted", "throughput"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, out.String())
		}
	}
}

func TestTraceModeErrors(t *testing.T) {
	// A trace for a wider network than the target's is refused.
	wide, _ := writeTestTrace(t, 10)
	wall := testService(t)
	var out bytes.Buffer
	err := run(context.Background(), []string{"-url", wall.URL, "-trace", wide}, &out)
	if err == nil || !strings.Contains(err.Error(), "machines") {
		t.Errorf("trace wider than the target accepted: %v", err)
	}

	// A missing trace file is a clean error.
	err = run(context.Background(), []string{
		"-url", wall.URL, "-trace", filepath.Join(t.TempDir(), "missing.trace.json"),
	}, &out)
	if err == nil {
		t.Error("missing trace file accepted")
	}
}

// TestTraceModeSlopeGate: -windows and -max-slope gate a trace replay. A
// target whose every advance is slower than the last (a per-epoch cost that
// grows with history) reads a rising slope, which fails a tight -max-slope
// and passes a loose one.
func TestTraceModeSlopeGate(t *testing.T) {
	path, n := writeTestTrace(t, 4)
	srv := virtualService(t, n+1)
	var advances atomic.Int64
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/advance" {
			time.Sleep(time.Duration(advances.Add(1)) * 2 * time.Millisecond)
		}
		srv.Config.Handler.ServeHTTP(w, r)
	}))
	defer slow.Close()

	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-url", slow.URL, "-trace", path, "-windows", "4", "-max-slope", "2",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "exceeds -max-slope") {
		t.Fatalf("rising slope passed -max-slope 2: %v\n%s", err, out.String())
	}
	for _, want := range []string{"windows", "slope"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("soak report missing %q:\n%s", want, out.String())
		}
	}
}
