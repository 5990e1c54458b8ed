package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datastaging/internal/obs/lifecycle"
)

func replayWithAudit(t *testing.T, trPath, auditPath string, extra ...string) string {
	t.Helper()
	var out bytes.Buffer
	args := []string{
		"-addr", "127.0.0.1:0",
		"-seed", "3",
		"-virtual-clock",
		"-replay-trace", trPath,
		"-audit-out", auditPath,
	}
	args = append(args, extra...)
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	return out.String()
}

// TestAuditByteStability is the forensics contract end to end, single-world
// and at -shards 2 (whose stream carries the records of committed
// cross-shard legs): replaying the same canonical trace twice through the daemon
// produces byte-identical audit JSONL, every line validates against the
// wide-event schema, seq numbers the lines with no gap or reordering, and
// the record and decision counts are pinned exactly.
func TestAuditByteStability(t *testing.T) {
	trPath := writeBuiltinTrace(t, "steady", 0.25, 10)
	for _, tc := range []struct {
		name               string
		extra              []string
		records, decisions int
		chrome             bool // -chrome-trace-out is single-engine only
	}{
		{name: "single", records: 19, decisions: 19, chrome: true},
		// 19 arrivals, 15 records: one per committed engine leg. Five of
		// the eight cross-shard submissions are admitted over a cut link
		// alone, commit no leg, and so leave no record.
		{name: "shards 2", extra: []string{"-shards", "2"}, records: 15, decisions: 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			pathA := filepath.Join(dir, "a.audit.jsonl")
			pathB := filepath.Join(dir, "b.audit.jsonl")
			chromePath := filepath.Join(dir, "run.trace.json")

			extraA := tc.extra
			if tc.chrome {
				extraA = append(extraA, "-chrome-trace-out", chromePath)
			}
			outA := replayWithAudit(t, trPath, pathA, extraA...)
			replayWithAudit(t, trPath, pathB, tc.extra...)

			a, err := os.ReadFile(pathA)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(pathB)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("audit JSONL differs across identical replays (%d vs %d bytes)", len(a), len(b))
			}

			// Every line must parse and validate, and line i must carry seq i.
			recs, err := lifecycle.ReadJSONL(bytes.NewReader(a))
			if err != nil {
				t.Fatalf("audit stream rejected by its own schema: %v", err)
			}
			decisions := 0
			for i, r := range recs {
				if r.Seq != i {
					t.Fatalf("line %d: seq %d, want %d (audit log has gaps or reordering)", i+1, r.Seq, i)
				}
				if r.Kind == lifecycle.KindDecision {
					decisions++
				}
			}
			if len(recs) != tc.records || decisions != tc.decisions {
				t.Errorf("%d records, %d decisions; want %d and %d", len(recs), decisions, tc.records, tc.decisions)
			}
			if !strings.Contains(outA, "audit records to "+pathA) {
				t.Errorf("output does not report the audit artifact:\n%s", outA)
			}
			if !tc.chrome {
				return
			}

			// The chrome trace must be valid JSON with per-request lifecycle events.
			cb, err := os.ReadFile(chromePath)
			if err != nil {
				t.Fatal(err)
			}
			var ct struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(cb, &ct); err != nil {
				t.Fatalf("chrome trace is not valid JSON: %v", err)
			}
			if len(ct.TraceEvents) == 0 {
				t.Error("chrome trace has no events")
			}
			if !strings.Contains(string(cb), "decision: admitted") {
				t.Error("chrome trace missing per-request decision instants")
			}
			if !strings.Contains(outA, "wrote chrome trace to "+chromePath) {
				t.Errorf("output does not report the chrome trace:\n%s", outA)
			}
		})
	}
}

// TestAuditOutImpliesAudit pins the flag coupling: -audit-out alone turns
// auditing on, and a bad path is a clean startup error.
func TestAuditOutImpliesAudit(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-addr", "127.0.0.1:0", "-virtual-clock",
		"-audit-out", filepath.Join(t.TempDir(), "no", "such", "dir", "a.jsonl"),
	}, &out)
	if err == nil {
		t.Fatal("unwritable -audit-out accepted")
	}
}
