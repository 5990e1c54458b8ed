package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datastaging/internal/dynamic"
	"datastaging/internal/gen"
	"datastaging/internal/model"
	"datastaging/internal/serve"
	"datastaging/internal/workload"
)

// TestTraceReplayCrossPath is the PR's acceptance contract: one canonical
// trace replays bit-identically — transfers and weighted objective —
// across the stagesim CLI, dynamic.Simulate called directly, and the serve
// HTTP path.
func TestTraceReplayCrossPath(t *testing.T) {
	dir := t.TempDir()
	trPath := filepath.Join(dir, "burst.trace.json")
	var out bytes.Buffer
	if err := run([]string{"-emit-trace", trPath, "-sat-spec", "burst"}, &out); err != nil {
		t.Fatalf("emit-trace: %v", err)
	}

	// CLI replay.
	artifact := filepath.Join(dir, "replay.json")
	if err := run([]string{"-replay", trPath, "-replay-out", artifact}, &out); err != nil {
		t.Fatalf("replay: %v", err)
	}
	raw, err := os.ReadFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	var cli replayOutcome
	if err := json.Unmarshal(raw, &cli); err != nil {
		t.Fatal(err)
	}

	// The same trace through dynamic.Simulate directly.
	tr, err := workload.ReadTraceFile(trPath)
	if err != nil {
		t.Fatal(err)
	}
	base, err := gen.NetworkOnly(gen.Default(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sc, events, err := tr.Materialize(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workloadConfig(options{}, model.Weights1x10x100)
	want, err := dynamic.Simulate(sc, cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	var wantValue float64
	for id := range want.Satisfied {
		wantValue += cfg.Weights.Of(sc.Request(id).Priority)
	}
	if cli.WeightedValue != wantValue {
		t.Errorf("weighted value %v from CLI, %v from Simulate", cli.WeightedValue, wantValue)
	}
	if len(cli.Transfers) != len(want.Transfers) {
		t.Fatalf("transfers %d from CLI, %d from Simulate", len(cli.Transfers), len(want.Transfers))
	}
	for i := range want.Transfers {
		if cli.Transfers[i] != want.Transfers[i] {
			t.Fatalf("transfer %d: %+v from CLI, %+v from Simulate", i, cli.Transfers[i], want.Transfers[i])
		}
	}

	// The same trace through the serve HTTP path.
	empty := *base
	eng, err := serve.New(&empty, serve.Options{
		Config:       cfg,
		VirtualClock: true,
		QueueCap:     len(tr.Arrivals) + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(eng.Handler())
	defer srv.Close()
	c := &serve.Client{BaseURL: srv.URL}
	if _, err := serve.ReplayTrace(context.Background(), c, tr); err != nil {
		t.Fatal(err)
	}
	got, err := c.Schedule(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.WeightedValue != cli.WeightedValue {
		t.Errorf("weighted value %v over HTTP, %v from CLI", got.WeightedValue, cli.WeightedValue)
	}
	if len(got.Transfers) != len(cli.Transfers) {
		t.Fatalf("transfers %d over HTTP, %d from CLI", len(got.Transfers), len(cli.Transfers))
	}
	for i := range cli.Transfers {
		if got.Transfers[i] != cli.Transfers[i] {
			t.Fatalf("transfer %d: %+v over HTTP, %+v from CLI", i, got.Transfers[i], cli.Transfers[i])
		}
	}
}

var update = flag.Bool("update", false, "rewrite golden files")

// TestSaturationCLI drives -saturation end to end over the bursty builtin
// at loads 0.5, 2 and 8: the table renders, and the JSON artifact, which
// the fake clock makes byte-stable, equals testdata/saturation_burst.golden.json
// byte for byte. Regenerate it with -update only when a schedule or
// admission change is intended.
func TestSaturationCLI(t *testing.T) {
	dir := t.TempDir()
	artifact := filepath.Join(dir, "sat.json")
	var out bytes.Buffer
	if err := run([]string{
		"-saturation", "-sat-spec", "burst", "-sat-loads", "0.5,2,8",
		"-sat-fake-clock", "-sat-out", artifact, "-quiet",
	}, &out); err != nil {
		t.Fatalf("saturation: %v\n%s", err, out.String())
	}
	for _, want := range []string{"adm rate", "efficiency", "p99 decide", "knee"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("saturation output missing %q:\n%s", want, out.String())
		}
	}
	got, err := os.ReadFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "saturation_burst.golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("saturation artifact differs from %s:\n%s\n--- want ---\n%s", golden, got, want)
	}

	// The multi-network sweep times its decisions with the same fake clock:
	// its artifact, latency columns included, is byte-stable too.
	sweep := func(outPath string) []byte {
		var out bytes.Buffer
		if err := run([]string{
			"-saturation", "-sat-spec", "burst", "-sat-loads", "0.5,1", "-sat-cases", "2",
			"-sat-fake-clock", "-sat-out", outPath, "-quiet",
		}, &out); err != nil {
			t.Fatalf("saturation sweep: %v\n%s", err, out.String())
		}
		b, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := sweep(filepath.Join(dir, "sweep-a.json")), sweep(filepath.Join(dir, "sweep-b.json")); !bytes.Equal(a, b) {
		t.Fatalf("-sat-cases 2 artifact not byte-stable under -sat-fake-clock:\n%s\n---\n%s", a, b)
	}
}

func TestParseLoads(t *testing.T) {
	if loads, err := parseLoads("0.5, 1,2"); err != nil || len(loads) != 3 {
		t.Fatalf("parseLoads: %v %v", loads, err)
	}
	for _, bad := range []string{"", "x", "2,1", "1,,x"} {
		if _, err := parseLoads(bad); err == nil {
			t.Errorf("parseLoads(%q) accepted", bad)
		}
	}
}

func TestWorkloadModeErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-saturation", "-sat-spec", "nope"}, &out); err == nil {
		t.Error("unknown -sat-spec accepted")
	}
	if err := run([]string{"-replay", filepath.Join(t.TempDir(), "missing.trace.json")}, &out); err == nil {
		t.Error("missing -replay file accepted")
	}
	if err := run([]string{"-saturation", "-sat-loads", "4,2,1"}, &out); err == nil {
		t.Error("descending -sat-loads accepted")
	}
}
