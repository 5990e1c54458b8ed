package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"datastaging/internal/core"
	"datastaging/internal/model"
	"datastaging/internal/obs"
	"datastaging/internal/serve"
	"datastaging/internal/testnet"
)

func testService(t *testing.T) *httptest.Server {
	t.Helper()
	b := testnet.NewBuilder()
	ms := b.Machines(4, 1<<30)
	for i := 0; i < 3; i++ {
		b.Link(ms[i], ms[i+1], 0, 24*time.Hour, 8<<20)
		b.Link(ms[i+1], ms[i], 0, 24*time.Hour, 8<<20)
	}
	eng, err := serve.New(b.Build("loadtest"), serve.Options{
		Config: core.Config{
			Heuristic: core.FullPathOneDest,
			Criterion: core.C4,
			EU:        core.EUFromLog10(2),
			Weights:   model.Weights1x10x100,
			Obs:       obs.New(),
		},
		TimeScale: 36000, // ten simulated hours per wall second
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

// TestRunAgainstService replays a trace open-loop through the CLI against
// an in-process wall-clock service and checks the summary and the
// -min-admitted gate.
func TestRunAgainstService(t *testing.T) {
	srv := testService(t)
	path, n := writeTestTrace(t, 4)
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-url", srv.URL, "-trace", path, "-min-admitted", "1",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{fmt.Sprintf("requests   %d", n), "admitted", "latency", "throughput"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, out.String())
		}
	}

	// An unachievable admission floor fails the run.
	out.Reset()
	err = run(context.Background(), []string{
		"-url", srv.URL, "-trace", path, "-min-admitted", "1000",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "need at least") {
		t.Errorf("min-admitted gate did not fire: %v", err)
	}
}

// TestRunFlagErrors: -url and -trace are required, and the synthetic
// generator's flags are gone with it.
func TestRunFlagErrors(t *testing.T) {
	path, _ := writeTestTrace(t, 4)
	for _, args := range [][]string{
		nil,
		{"-trace", path},
		{"-url", "http://127.0.0.1:0"},
		{"-url", "http://127.0.0.1:0", "-trace", path, "-n", "10"},
		{"-url", "http://127.0.0.1:0", "-trace", path, "-workers", "4"},
		{"-url", "http://127.0.0.1:0", "-trace", path, "-backoff", "1s"},
	} {
		var out bytes.Buffer
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
