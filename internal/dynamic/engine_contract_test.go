package dynamic

import (
	"strings"
	"testing"
	"time"

	"datastaging/internal/model"
	"datastaging/internal/scenario"
	"datastaging/internal/simtime"
	"datastaging/internal/testnet"
)

// TestSetScenarioAppendOnlyContract pins the SetScenario contract: the
// engine's persistent state refers to items and links by ID, so a scenario
// swap must be an append-only extension. Same-pointer swaps (the caller
// appended in place) are trusted; different pointers are verified
// structurally and rejected when they rewrite existing entries.
func TestSetScenarioAppendOnlyContract(t *testing.T) {
	base := testnet.Line(4, 64<<10, 1<<20, time.Hour)

	extend := func(mut func(sc *scenario.Scenario)) *scenario.Scenario {
		next := *base
		next.Items = base.Items[:len(base.Items):len(base.Items)]
		mut(&next)
		return &next
	}

	cases := []struct {
		name    string
		swap    func() *scenario.Scenario
		wantErr string
	}{
		{
			name: "same pointer trusted",
			swap: func() *scenario.Scenario { return base },
		},
		{
			name: "append-only extension accepted",
			swap: func() *scenario.Scenario {
				return extend(func(sc *scenario.Scenario) {
					sc.Items = append(sc.Items, model.Item{
						ID: model.ItemID(len(sc.Items)), SizeBytes: 1 << 10,
						Sources:  []model.Source{{Machine: 0}},
						Requests: []model.Request{{Machine: 1, Deadline: simtime.At(time.Hour)}},
					})
				})
			},
		},
		{
			name:    "nil scenario rejected",
			swap:    func() *scenario.Scenario { return nil },
			wantErr: "nil scenario",
		},
		{
			name: "network swap rejected",
			swap: func() *scenario.Scenario {
				return extend(func(sc *scenario.Scenario) {
					other := *base.Network
					sc.Network = &other
				})
			},
			wantErr: "network replaced",
		},
		{
			name: "shrunk item list rejected",
			swap: func() *scenario.Scenario {
				return extend(func(sc *scenario.Scenario) {
					sc.Items = sc.Items[:len(sc.Items)-1]
				})
			},
			wantErr: "shrank",
		},
		{
			name: "resized existing item rejected",
			swap: func() *scenario.Scenario {
				return extend(func(sc *scenario.Scenario) {
					items := append([]model.Item(nil), sc.Items...)
					items[0].SizeBytes++
					sc.Items = items
				})
			},
			wantErr: "item 0 changed",
		},
		{
			name: "retargeted request rejected",
			swap: func() *scenario.Scenario {
				return extend(func(sc *scenario.Scenario) {
					items := append([]model.Item(nil), sc.Items...)
					items[0].Requests = append([]model.Request(nil), items[0].Requests...)
					items[0].Requests[0].Deadline = items[0].Requests[0].Deadline.Add(time.Minute)
					sc.Items = items
				})
			},
			wantErr: "item 0 changed",
		},
		{
			name: "added source on existing item rejected",
			swap: func() *scenario.Scenario {
				return extend(func(sc *scenario.Scenario) {
					items := append([]model.Item(nil), sc.Items...)
					items[0].Sources = append(append([]model.Source(nil), items[0].Sources...),
						model.Source{Machine: 2})
					sc.Items = items
				})
			},
			wantErr: "item 0 changed",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := NewEngine(base, cfgC4())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.ReplanAt(0); err != nil {
				t.Fatal(err)
			}
			err = eng.SetScenario(tc.swap())
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("SetScenario: %v", err)
				}
				if _, err := eng.ReplanAt(simtime.At(time.Minute)); err != nil {
					t.Fatalf("replan after accepted swap: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("SetScenario error = %v, want substring %q", err, tc.wantErr)
			}
			if eng.Scenario() != base {
				t.Error("rejected swap replaced the engine's scenario")
			}
		})
	}
}

// TestCheckpointIsConstantTime pins the O(1) checkpoint: the snapshot
// aliases the live history's backing array instead of copying it, and stays
// intact across a full replay, which builds a fresh history array.
func TestCheckpointIsConstantTime(t *testing.T) {
	sc := testnet.Line(5, 64<<10, 1<<20, time.Hour)
	eng, err := NewEngine(sc, cfgC4())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ReplanAt(0); err != nil {
		t.Fatal(err)
	}
	h := eng.Transfers()
	if len(h) == 0 {
		t.Fatal("schedule committed no transfers")
	}
	cp := eng.Checkpoint()
	if len(cp.history) != len(h) || &cp.history[0] != &h[0] {
		t.Fatal("checkpoint copied the history instead of aliasing it")
	}
	before := append(cp.history[:0:0], cp.history...)

	// A link failure's full replay must not disturb the aliased snapshot.
	// The failed link is one no transfer uses, so the replay
	// keeps every transfer and the rollback below owes nothing to it.
	used := make(map[model.LinkID]bool)
	for _, tr := range h {
		used[tr.Link] = true
	}
	idle := model.LinkID(-1)
	for l := range sc.Network.Links {
		if !used[model.LinkID(l)] {
			idle = model.LinkID(l)
			break
		}
	}
	if idle < 0 {
		t.Fatal("every link carries a transfer")
	}
	eng.FailLink(idle, 0)
	if _, err := eng.ReplanAt(0); err != nil {
		t.Fatal(err)
	}
	if !eng.LastEpoch().Full {
		t.Fatal("a link failure must force a full replay")
	}
	if got := eng.Transfers(); len(got) > 0 && &got[0] == &h[0] {
		t.Fatal("full replay reused the checkpointed backing array")
	}
	for i := range before {
		if cp.history[i] != before[i] {
			t.Fatalf("full replay mutated checkpointed transfer %d", i)
		}
	}

	// Rollback + replay must reproduce the pre-speculation schedule.
	eng.Rollback(cp)
	if _, err := eng.ReplanAt(0); err != nil {
		t.Fatal(err)
	}
	got := eng.Transfers()
	if len(got) != len(before) {
		t.Fatalf("replay after rollback: %d transfers, want %d", len(got), len(before))
	}
	for i := range got {
		if got[i] != before[i] {
			t.Fatalf("replay after rollback: transfer %d differs", i)
		}
	}
}
