// The bursty end-to-end equivalence contract, in an external test package:
// it exercises only the exported surface — workload compilation, trace
// serialization, ReplayTrace over a real HTTP server — exactly as the
// stagesvc/stageload binaries do.
package serve_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"

	"datastaging/internal/core"
	"datastaging/internal/dynamic"
	"datastaging/internal/gen"
	"datastaging/internal/model"
	"datastaging/internal/serve"
	"datastaging/internal/validator"
	"datastaging/internal/workload"
)

// replayNet is the shared base network for the bursty equivalence tests: a
// small instance of the paper's generator, request book empty.
func replayNet(t testing.TB) *gen.Params {
	t.Helper()
	p := gen.Default()
	p.Machines = gen.IntRange{Min: 6, Max: 6}
	return &p
}

// sameInstantTrace compiles a short steady stream and moves its first n
// arrivals onto the first one's instant, each keeping its deadline slack:
// one admission epoch of n submissions.
func sameInstantTrace(t *testing.T, machines, n int) *workload.Trace {
	t.Helper()
	spec := workload.Spec{Name: "same-instant", Seed: 4, Phases: []workload.Phase{{
		Duration: 24 * 3600e9, PerHour: 4, PriorityWeights: []float64{1, 1, 1},
		SizeMinBytes: 1 << 20, SizeMaxBytes: 64 << 20,
		SlackMin: 3600e9, SlackMax: 6 * 3600e9,
	}}}
	arrivals, err := spec.Compile(machines)
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) < n {
		t.Fatalf("spec compiled %d arrivals, want at least %d", len(arrivals), n)
	}
	arrivals = arrivals[:n]
	at := arrivals[0].At
	for i := range arrivals {
		a := &arrivals[i]
		for j := range a.Sources {
			a.Sources[j].Available = at
		}
		for j := range a.Requests {
			a.Requests[j].Deadline = at + a.Requests[j].Deadline - a.At
		}
		a.At = at
	}
	return workload.NewTrace(spec.Name, machines, nil, arrivals)
}

// TestHTTPEquivalenceBursty extends the equivalence contract to every
// built-in multi-phase workload, plus a trace of 17 arrivals at one
// instant: each trace, serialized through the canonical trace format and
// replayed over HTTP in virtual-clock mode on default options, must
// produce transfers and a weighted objective bit-identical to
// dynamic.Simulate replaying the same trace offline.
func TestHTTPEquivalenceBursty(t *testing.T) {
	params := replayNet(t)
	base, err := gen.NetworkOnly(*params, 9)
	if err != nil {
		t.Fatal(err)
	}
	machines := base.Network.NumMachines()

	var traces []*workload.Trace
	for _, spec := range workload.Builtins() {
		spec := spec
		arrivals, err := spec.Compile(machines)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, workload.NewTrace(spec.Name, machines, &spec, arrivals))
	}
	traces = append(traces, sameInstantTrace(t, machines, 17))

	for _, tr := range traces {
		tr := tr
		arrivals := tr.Arrivals
		t.Run(tr.Name, func(t *testing.T) {
			t.Parallel()
			// Round-trip through the canonical serialization first: the replayed
			// artifact is the file format, not the in-memory struct.
			var buf bytes.Buffer
			if err := workload.WriteTrace(&buf, tr); err != nil {
				t.Fatal(err)
			}
			tr, err := workload.ReadTrace(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}

			sc, events, err := tr.Materialize(base)
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.Config{
				Heuristic: core.FullPathOneDest,
				Criterion: core.C4,
				EU:        core.EUFromLog10(2),
				Weights:   model.Weights1x10x100,
			}

			// Offline reference.
			want, err := dynamic.Simulate(sc, cfg, events)
			if err != nil {
				t.Fatal(err)
			}
			var wantValue float64
			for id := range want.Satisfied {
				wantValue += cfg.Weights.Of(sc.Request(id).Priority)
			}

			// Online replay over a real HTTP server.
			empty := *base
			eng, err := serve.New(&empty, serve.Options{Config: cfg, VirtualClock: true})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(eng.Handler())
			defer srv.Close()
			c := &serve.Client{BaseURL: srv.URL}
			ctx := context.Background()

			rep, err := serve.ReplayTrace(ctx, c, tr)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Admitted+rep.Rejected != len(arrivals) {
				t.Fatalf("replay decided %d of %d arrivals",
					rep.Admitted+rep.Rejected, len(arrivals))
			}

			got, err := c.Schedule(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got.WeightedValue != wantValue {
				t.Errorf("weighted value %v over HTTP, %v from Simulate", got.WeightedValue, wantValue)
			}
			if got.Satisfied != len(want.Satisfied) {
				t.Errorf("satisfied %d over HTTP, %d from Simulate", got.Satisfied, len(want.Satisfied))
			}
			if len(got.Transfers) != len(want.Transfers) {
				t.Fatalf("transfers %d over HTTP, %d from Simulate", len(got.Transfers), len(want.Transfers))
			}
			for i := range want.Transfers {
				if got.Transfers[i] != want.Transfers[i] {
					t.Fatalf("transfer %d: %+v over HTTP, %+v from Simulate",
						i, got.Transfers[i], want.Transfers[i])
				}
			}
			if err := validator.Validate(eng.Scenario(), got.Transfers); err != nil {
				t.Errorf("service schedule failed independent validation: %v", err)
			}
		})
	}
}

// TestReplayTraceGuards pins the preconditions of a replay: a trace that
// wants more machines than the service has is refused on either clock, and
// on the virtual clock so is a queue too small for one instant's arrivals.
func TestReplayTraceGuards(t *testing.T) {
	base, err := gen.NetworkOnly(*replayNet(t), 9)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.Spec{Name: "g", Seed: 3, Phases: []workload.Phase{{
		Duration: 2 * 3600e9, PerHour: 6, PriorityWeights: []float64{1},
		SizeMinBytes: 1 << 20, SizeMaxBytes: 1 << 20,
		SlackMin: 3600e9, SlackMax: 2 * 3600e9,
	}}}
	arrivals, err := spec.Compile(base.Network.NumMachines())
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.NewTrace(spec.Name, base.Network.NumMachines(), &spec, arrivals)
	cfg := core.Config{Heuristic: core.FullPathOneDest, Criterion: core.C4,
		EU: core.EUFromLog10(2), Weights: model.Weights1x10x100}
	ctx := context.Background()

	// A trace for a bigger network than the wall-clock service's: refused
	// before anything is sent.
	empty := *base
	wall, err := serve.New(&empty, serve.Options{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(wall.Handler())
	defer srv.Close()
	wide := *tr
	wide.Machines = base.Network.NumMachines() + 1
	if _, err := serve.ReplayTrace(ctx, &serve.Client{BaseURL: srv.URL}, &wide); err == nil {
		t.Fatal("replay of a trace wider than the service's network should fail")
	}
	if sv := wall.Schedule(); sv.Items != 0 {
		t.Fatalf("refused replay still submitted %d items", sv.Items)
	}

	// Virtual clock but a queue that cannot hold two arrivals of one
	// instant: refused rather than shed.
	empty2 := *base
	tiny, err := serve.New(&empty2, serve.Options{Config: cfg, VirtualClock: true, QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(tiny.Handler())
	defer srv2.Close()
	pair := sameInstantTrace(t, base.Network.NumMachines(), 2)
	if _, err := serve.ReplayTrace(ctx, &serve.Client{BaseURL: srv2.URL}, pair); err == nil {
		t.Fatal("replay with queue-cap 1 should fail rather than shed an arrival")
	}
	if sv := tiny.Schedule(); sv.Items != 0 {
		t.Fatalf("refused replay still submitted %d items", sv.Items)
	}
}
