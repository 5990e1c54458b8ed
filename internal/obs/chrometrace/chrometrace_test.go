package chrometrace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"datastaging/internal/core"
	"datastaging/internal/model"
	"datastaging/internal/obs"
	"datastaging/internal/obs/lifecycle"
	"datastaging/internal/testnet"
)

var update = flag.Bool("update", false, "rewrite golden files")

// lineTrace schedules the canonical line fixture deterministically and
// renders it: schedule from the Result, planner track from the captured
// event stream.
func lineTrace(t *testing.T) ([]byte, *core.Result) {
	t.Helper()
	sc := testnet.Line(3, 1<<20, testnet.KBPS(1000), time.Hour)
	mem := &obs.MemorySink{}
	res, err := core.Schedule(sc, core.Config{
		Heuristic: core.PartialPath,
		Criterion: core.C3,
		Weights:   model.Weights1x5x10,
		Obs:       obs.NewTraced(mem),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFile(&buf, sc, res, mem.Events()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

func TestGoldenLine(t *testing.T) {
	got, _ := lineTrace(t)
	golden := filepath.Join("testdata", "line3.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace differs from golden %s (run with -update to regenerate)\ngot:\n%s", golden, got)
	}
}

// traceFile mirrors the subset of the Chrome trace format the validator
// and viewer rely on.
type traceFile struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Cat  string         `json:"cat"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestTraceStructure(t *testing.T) {
	raw, res := lineTrace(t)
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}

	// The line fixture commits two hops: each must appear as a complete
	// event on its own link track, time-ordered and non-overlapping.
	type track struct{ pid, tid int }
	lastEnd := map[track]float64{}
	lastTs := map[track]float64{}
	transfers := 0
	linkTracks := map[int]bool{}
	for _, e := range tf.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		k := track{e.Pid, e.Tid}
		if e.Ts < lastTs[k] {
			t.Errorf("track %v not time-ordered: ts %v after %v", k, e.Ts, lastTs[k])
		}
		lastTs[k] = e.Ts
		if e.Cat == "transfer" {
			transfers++
			linkTracks[e.Tid] = true
			if e.Ph != "X" || e.Dur <= 0 {
				t.Errorf("transfer event %q not a complete span: ph=%q dur=%v", e.Name, e.Ph, e.Dur)
			}
			if e.Ts < lastEnd[k] {
				t.Errorf("transfers overlap on track %v: start %v before previous end %v", k, e.Ts, lastEnd[k])
			}
			lastEnd[k] = e.Ts + e.Dur
		}
	}
	if want := len(res.Transfers); transfers != want {
		t.Errorf("trace has %d transfer events, schedule committed %d", transfers, want)
	}
	if len(linkTracks) != 2 {
		t.Errorf("expected 2 distinct link tracks for the 2-hop line, got %d", len(linkTracks))
	}

	// The satisfied request must be visible both as a planner instant and
	// as a slack arg on the final transfer.
	sawSatisfied, sawSlack := false, false
	for _, e := range tf.TraceEvents {
		if e.Ph == "i" && e.Name == "satisfied rq[0,0]" {
			sawSatisfied = true
		}
		if e.Cat == "transfer" {
			if _, ok := e.Args["satisfies"]; ok {
				sawSlack = true
			}
		}
	}
	if !sawSatisfied || !sawSlack {
		t.Errorf("request outcome missing: planner instant %v, transfer slack args %v", sawSatisfied, sawSlack)
	}
}

func TestAddEventsOnly(t *testing.T) {
	// A stagesim-style trace: no Result, only the event ring. Booked
	// transfers must reconstruct the link tracks.
	sc := testnet.Line(3, 1<<20, testnet.KBPS(1000), time.Hour)
	mem := &obs.MemorySink{}
	if _, err := core.Schedule(sc, core.Config{
		Heuristic: core.PartialPath, Criterion: core.C3,
		Weights: model.Weights1x5x10,
		Obs:     obs.NewTraced(mem),
	}); err != nil {
		t.Fatal(err)
	}
	tr := New()
	tr.AddEvents(sc, mem.Events())
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	transfers := 0
	for _, e := range tf.TraceEvents {
		if e.Cat == "transfer" {
			transfers++
		}
	}
	if transfers != 2 {
		t.Errorf("events-only trace has %d transfers, want 2", transfers)
	}
}

func TestAddLifecycle(t *testing.T) {
	sec := func(s int64) int64 { return s * int64(time.Second) }
	recs := []lifecycle.Record{
		{
			Schema: lifecycle.SchemaVersion, Kind: lifecycle.KindDecision,
			Ticket: "r-0", Item: 0, Name: "bulk",
			Timeline: []lifecycle.Hop{
				{Stage: lifecycle.StageReceived, V: sec(10)},
				{Stage: lifecycle.StageEnqueued, V: sec(10)},
				{Stage: lifecycle.StageEpochStart, V: sec(30)},
				{Stage: lifecycle.StagePlanned, V: sec(30)},
				{Stage: lifecycle.StageDecided, V: sec(30)},
				{Stage: lifecycle.StageSettled, V: sec(30)},
			},
			Epoch: 1, EpochAt: sec(30), EpochPath: "incremental", BatchSize: 2,
			Status: "admitted",
			Requests: []lifecycle.RequestOutcome{{
				Item: 0, Index: 0, Machine: 1, Priority: 2,
				Status: "admitted", Deadline: sec(90), Completion: sec(61), BlamedLink: -1,
			}},
		},
		{
			// A late admission: r-1, rejected at its decision, admitted by
			// a later epoch.
			Schema: lifecycle.SchemaVersion, Kind: lifecycle.KindRevision,
			Ticket: "r-1", Item: 1,
			Timeline: []lifecycle.Hop{
				{Stage: lifecycle.StageReceived, V: sec(10)},
				{Stage: lifecycle.StageEnqueued, V: sec(10)},
				{Stage: lifecycle.StageEpochStart, V: sec(45)},
				{Stage: lifecycle.StagePlanned, V: sec(45)},
				{Stage: lifecycle.StageDecided, V: sec(45)},
				{Stage: lifecycle.StageSettled, V: sec(45)},
			},
			Epoch: 2, EpochAt: sec(45), EpochPath: "full", BatchSize: 1,
			Status: "admitted",
			Requests: []lifecycle.RequestOutcome{{
				Item: 1, Index: 0, Machine: 1, Priority: 1,
				Status: "admitted", Deadline: sec(120), Completion: sec(100), BlamedLink: -1,
			}},
		},
		{
			Schema: lifecycle.SchemaVersion, Kind: lifecycle.KindBackpressure,
			Item: -1, Status: "backpressure", QueueDepth: 4, RetryAfterS: 1,
			Timeline: []lifecycle.Hop{{Stage: lifecycle.StageReceived, V: sec(50)}},
		},
	}

	encode := func() []byte {
		tr := New()
		tr.AddLifecycle(recs)
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	raw := encode()
	if !bytes.Equal(raw, encode()) {
		t.Error("lifecycle trace is not deterministic across encodes")
	}

	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("lifecycle trace is not valid JSON: %v", err)
	}
	want := map[string]bool{
		"queued":              false, // span 10s→30s on the ticket track
		"decision: admitted":  false,
		"deliver r0.0":        false, // span 30s→61s
		"revised: admitted":   false,
		"deliver r1.0":        false, // span 45s→100s
		"shed (backpressure)": false,
	}
	for _, e := range tf.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		if e.Pid != pidRequests {
			t.Errorf("lifecycle event %q on pid %d, want %d", e.Name, e.Pid, pidRequests)
		}
		if _, ok := want[e.Name]; ok {
			want[e.Name] = true
		}
		switch e.Name {
		case "queued":
			if e.Ts != 10e6 || e.Dur != 20e6 || e.Tid != 1 {
				t.Errorf("queued span = ts %v dur %v tid %d", e.Ts, e.Dur, e.Tid)
			}
		case "deliver r0.0":
			if e.Ts != 30e6 || e.Dur != 31e6 {
				t.Errorf("deliver span = ts %v dur %v", e.Ts, e.Dur)
			}
		case "revised: admitted":
			if e.Args["epoch"] != 2.0 || e.Tid != 2 {
				t.Errorf("revision on tid %d, args %v", e.Tid, e.Args)
			}
		case "deliver r1.0":
			if e.Ts != 45e6 || e.Dur != 55e6 || e.Tid != 2 {
				t.Errorf("late deliver span = ts %v dur %v tid %d", e.Ts, e.Dur, e.Tid)
			}
		case "shed (backpressure)":
			if e.Tid != 0 {
				t.Errorf("shed instant on tid %d, want 0", e.Tid)
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("lifecycle trace missing %q event", name)
		}
	}
}
