package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"datastaging/internal/serve"
	"datastaging/internal/workload"
)

// TestEndToEndLoopback boots the daemon on a loopback port, replays a
// trace open-loop on its wall clock through the real HTTP stack, checks the
// Prometheus surface, then triggers the graceful drain and verifies a
// clean exit with a validated final-schedule report — once per service
// implementation, since both sit behind the same handler set.
func TestEndToEndLoopback(t *testing.T) {
	for _, mode := range []struct {
		name string
		args []string
	}{
		{"single", nil},
		{"sharded", []string{"-shards", "2"}},
	} {
		t.Run(mode.name, func(t *testing.T) { loopback(t, mode.args) })
	}
}

func loopback(t *testing.T, extra []string) {
	ready := make(chan string, 1)
	testHookReady = func(addr string) { ready <- addr }
	defer func() { testHookReady = nil }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, append([]string{
			"-addr", "127.0.0.1:0",
			"-seed", "3",
			"-queue-cap", "64",
			"-time-scale", "36000", // ten simulated hours per wall second
		}, extra...), &out)
	}()

	var addr string
	select {
	case addr = <-ready:
	case err := <-errCh:
		t.Fatalf("daemon exited before ready: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	// Two simulated hours of traffic: 0.2 s of wall time at this scale.
	spec := workload.Spec{Name: "loopback", Seed: 1, Phases: []workload.Phase{{
		Duration: 2 * time.Hour, PerHour: 32, PriorityWeights: []float64{1, 1, 1},
		SizeMinBytes: 64 << 10, SizeMaxBytes: 4 << 20,
		SlackMin: 4 * time.Hour, SlackMax: 12 * time.Hour,
	}}}
	arrivals, err := spec.Compile(4)
	if err != nil {
		t.Fatal(err)
	}
	c := &serve.Client{BaseURL: "http://" + addr}
	rep, err := serve.ReplayTrace(ctx, c, workload.NewTrace(spec.Name, 4, &spec, arrivals))
	if err != nil {
		t.Fatalf("trace replay: %v", err)
	}
	if rep.Admitted == 0 {
		t.Errorf("replay admitted nothing: %+v", rep)
	}
	if got := rep.Admitted + rep.Rejected; got != len(arrivals) || rep.Errors+rep.Overloaded != 0 {
		t.Errorf("verdicts for %d of %d arrivals (%d errors, %d shed)",
			got, len(arrivals), rep.Errors, rep.Overloaded)
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, metric := range []string{"serve_admitted_total", "serve_epochs_total", "serve_batch_size"} {
		if !strings.Contains(string(body), metric) {
			t.Errorf("/metrics missing %s", metric)
		}
	}

	// The signal path: cancelling the context is what SIGTERM does in main.
	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon exit: %v\n%s", err, out.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain and exit")
	}
	for _, want := range []string{"final schedule", "validator: final schedule clean"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestBadFlags: configuration errors surface before the listener opens.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-heuristic", "bogus"},
		{"-criterion", "C9"},
		{"-weights", "a,b"},
		{"-in", "/does/not/exist.json"},
		{"-shards", "2", "-with-items"},
		{"-shards", "2", "-chrome-trace-out", "x"},
		{"-shard-map", "/does/not/exist"},
		{"-max-wait", "1ms"}, // the coalescing window is gone, and its flag with it
		{"-preempt"},         // an admit is final; the preemption policy is gone
	} {
		var out bytes.Buffer
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
