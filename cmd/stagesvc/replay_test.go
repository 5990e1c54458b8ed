package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datastaging/internal/workload"
)

// writeBuiltinTrace compiles the named builtin spec, its rate scaled by
// scale, over a network of the given machine count into a canonical trace
// file — what `stagesim -emit-trace FILE -sat-spec NAME` writes when scale
// is 1 — and returns its path.
func writeBuiltinTrace(t *testing.T, name string, scale float64, machines int) string {
	t.Helper()
	spec, err := workload.Builtin(name)
	if err != nil {
		t.Fatal(err)
	}
	if scale != 1 {
		spec = spec.ScaleRate(scale)
	}
	arrivals, err := spec.Compile(machines)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name+".trace.json")
	if err := workload.WriteTraceFile(path, workload.NewTrace(spec.Name, machines, &spec, arrivals)); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplayTraceMode drives -replay-trace end to end: the daemon boots,
// replays a canonical trace against its own HTTP endpoint, reports a
// validator-clean final schedule, and exits cleanly. The burst rows replay
// the bursty builtin over the seed-5 paper network (86 arrivals), once
// single-world and once cut into 4 shards of 2–3 machines, and pin both
// final schedules exactly. At that grain most submissions cross a shard
// boundary and cut routes are single-hop, so the sharded objective sits
// well below the single world's (DESIGN §9); the pin makes any move in
// either one a failure.
func TestReplayTraceMode(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spec  string
		scale float64 // a couple dozen steady arrivals keeps the first row fast
		seed  string
		extra []string
		want  []string
	}{
		{name: "steady", spec: "steady", scale: 0.25, seed: "3",
			want: []string{"replayed trace steady", "final schedule", "weighted value"}},
		{name: "burst", spec: "burst", scale: 1, seed: "5",
			want: []string{
				"stagesvc: replayed trace burst: 86 arrivals, 83 admitted, 3 rejected\n",
				"stagesvc: final schedule: 86 epochs, 83/86 requests satisfied, 164 transfers, weighted value 4457.0\n",
			}},
		{name: "burst shards 4", spec: "burst", scale: 1, seed: "5", extra: []string{"-shards", "4"},
			want: []string{
				"stagesvc: partitioned into 4 shards",
				"stagesvc: replayed trace burst: 86 arrivals, 60 admitted, 26 rejected\n",
				"stagesvc: final schedule: 36 epochs, 60/86 requests satisfied, 91 transfers, weighted value 2994.0\n",
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trPath := writeBuiltinTrace(t, tc.spec, tc.scale, 10)
			schedPath := filepath.Join(t.TempDir(), "schedule.json")
			var out bytes.Buffer
			err := run(context.Background(), append([]string{
				"-addr", "127.0.0.1:0",
				"-seed", tc.seed,
				"-virtual-clock",
				"-replay-trace", trPath,
				"-schedule-out", schedPath,
			}, tc.extra...), &out)
			if err != nil {
				t.Fatalf("run: %v\n%s", err, out.String())
			}
			for _, want := range append(tc.want, "stagesvc: validator: final schedule clean\n") {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output missing %q:\n%s", want, out.String())
				}
			}
			if b, err := os.ReadFile(schedPath); err != nil || len(b) == 0 {
				t.Errorf("-schedule-out artifact missing or empty (%d bytes, %v)", len(b), err)
			}
		})
	}
}

// TestReplayTraceNeedsVirtualClock pins the guard: trace replay is defined
// over the virtual timeline only.
func TestReplayTraceNeedsVirtualClock(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-addr", "127.0.0.1:0", "-replay-trace", "whatever.trace.json",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "virtual-clock") {
		t.Fatalf("want a virtual-clock error, got %v", err)
	}
}
