package core

import (
	"testing"
	"time"

	"datastaging/internal/model"
	"datastaging/internal/scenario"
	"datastaging/internal/simtime"
	"datastaging/internal/state"
	"datastaging/internal/testnet"
)

// TestBoundRetirement drives a persistent planner over the three shapes that
// decide whether a cap-blocked item may be retired. In each scenario the
// subject is the last item; every transfer takes about eight seconds.
func TestBoundRetirement(t *testing.T) {
	const size = 1 << 20
	day := 24 * time.Hour
	bps := testnet.KBPS(1000)
	src := func(m model.MachineID) []model.Source { return []model.Source{testnet.Src(m, 0)} }
	req := func(m model.MachineID, deadline time.Duration, p model.Priority) []model.Request {
		return []model.Request{testnet.Req(m, deadline, p)}
	}

	// step is one epoch and what must hold of the subject after it; quiet
	// epochs must not run Dijkstra at all.
	type step struct {
		at                time.Duration
		retired, admitted bool
		quiet             bool
	}
	for _, tc := range []struct {
		name  string
		build func() *scenario.Scenario
		steps []step
	}{
		{
			// The destination holds exactly one item and the urgent one
			// takes it forever: no floor frees a destination's storage.
			name: "destination full forever",
			build: func() *scenario.Scenario {
				b := testnet.NewBuilder()
				a, dst := b.Machine(1<<30), b.Machine(size)
				b.Link(a, dst, 0, day, bps)
				b.Item(size, src(a), req(dst, time.Hour, model.High))
				b.Item(size, src(a), req(dst, 2*time.Hour, model.Low))
				return b.Build("full-forever")
			},
			steps: []step{
				{at: 0, retired: true},
				{at: 1 * time.Minute, retired: true, quiet: true},
				{at: 2 * time.Minute, retired: true, quiet: true},
				{at: 3 * time.Minute, retired: true, quiet: true},
				{at: 4 * time.Minute, retired: true, quiet: true},
				{at: 5 * time.Minute, retired: true, quiet: true},
			},
		},
		{
			// The only route crosses a relay that holds one item. The
			// urgent item's relay copy is collected at 10 m + γ = 16 m; the
			// subject's earliest arrival there collides with it at floor 0
			// but not at floor 20 m, well inside its 60 m deadline.
			name: "relay frees at a gc instant",
			build: func() *scenario.Scenario {
				b := testnet.NewBuilder()
				a, relay, dst := b.Machine(1<<30), b.Machine(size), b.Machine(1<<30)
				b.Link(a, relay, 0, day, bps)
				b.Link(relay, dst, 0, day, bps)
				b.Item(size, src(a), req(dst, 10*time.Minute, model.High))
				b.Item(size, src(a), req(dst, time.Hour, model.Low))
				return b.Build("relay-gc")
			},
			steps: []step{
				{at: 0},
				{at: 20 * time.Minute, retired: true, admitted: true},
			},
		},
		{
			// A side machine too small for the item keeps the forest
			// cap-blocked; the first epoch runs after the only deadline.
			name: "deadline behind the floor",
			build: func() *scenario.Scenario {
				b := testnet.NewBuilder()
				a, side, dst := b.Machine(1<<30), b.Machine(size/2), b.Machine(1<<30)
				b.Link(a, side, 0, day, bps)
				b.Link(a, dst, 0, day, bps)
				b.Item(size, src(a), req(dst, 10*time.Minute, model.High))
				return b.Build("late")
			},
			steps: []step{
				{at: 11 * time.Minute, retired: true},
				{at: 12 * time.Minute, retired: true, quiet: true},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := tc.build()
			subject := model.ItemID(len(sc.Items) - 1)
			pp, err := NewPlannerOn(state.New(sc), Config{
				Heuristic: PartialPath, Criterion: C4,
				EU: EUFromLog10(0), Weights: model.Weights1x10x100,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range tc.steps {
				res, err := pp.Epoch(simtime.At(s.at))
				if err != nil {
					t.Fatalf("epoch %v: %v", s.at, err)
				}
				if got := pp.ItemRetired(subject); got != s.retired {
					t.Errorf("epoch %v: retired %v, want %v", s.at, got, s.retired)
				}
				_, got := res.Satisfied[model.RequestID{Item: subject}]
				if got != s.admitted {
					t.Errorf("epoch %v: admitted %v, want %v", s.at, got, s.admitted)
				}
				if s.quiet && res.Stats.DijkstraRuns != 0 {
					t.Errorf("epoch %v: %d Dijkstra runs for a retired backlog", s.at, res.Stats.DijkstraRuns)
				}
			}
		})
	}
}
