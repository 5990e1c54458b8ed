package state

import (
	"strings"
	"testing"
	"time"

	"datastaging/internal/model"
	"datastaging/internal/simtime"
	"datastaging/internal/testnet"
)

// chainScenario: 0→1→2 with generous links, one 1 KB item at machine 0
// requested by machine 2 (deadline 30 m, high) — 1 KB at 8 kbit/s is a
// 1-second hop.
func chainScenario() (*State, model.ItemID) {
	b := testnet.NewBuilder()
	ms := b.Machines(3, 1<<20)
	b.Link(ms[0], ms[1], 0, 2*time.Hour, 8000)
	b.Link(ms[1], ms[2], 0, 2*time.Hour, 8000)
	b.Link(ms[2], ms[0], 0, 2*time.Hour, 8000)
	item := b.Item(1024,
		[]model.Source{testnet.Src(ms[0], time.Minute)},
		[]model.Request{testnet.Req(ms[2], 30*time.Minute, model.High)})
	return New(b.Build("chain")), item
}

func TestNewStateInitialHolders(t *testing.T) {
	st, item := chainScenario()
	if !st.Holds(item, 0) {
		t.Error("source machine should hold the item")
	}
	if st.Holds(item, 1) || st.Holds(item, 2) {
		t.Error("non-source machines should not hold the item")
	}
	h, ok := st.Holder(item, 0)
	if !ok || h.Avail != simtime.At(time.Minute) || h.End != simtime.Forever {
		t.Errorf("source holder: got %+v", h)
	}
	if len(st.Holders(item)) != 1 {
		t.Errorf("Holders: got %d, want 1", len(st.Holders(item)))
	}
	if st.IsDestination(item, 0) || !st.IsDestination(item, 2) {
		t.Error("IsDestination wrong")
	}
	if len(st.Transfers()) != 0 || len(st.Satisfied()) != 0 {
		t.Error("fresh state should have no transfers or satisfied requests")
	}
}

func TestHoldEndAndInterval(t *testing.T) {
	st, item := chainScenario()
	// Intermediate machine 1: held until latest deadline (30m) + γ (6m).
	wantGC := simtime.At(36 * time.Minute)
	if got := st.HoldEnd(item, 1); got != wantGC {
		t.Errorf("HoldEnd(intermediate): got %v, want %v", got, wantGC)
	}
	if got := st.HoldEnd(item, 2); got != simtime.Forever {
		t.Errorf("HoldEnd(destination): got %v, want Forever", got)
	}
	iv := st.HoldInterval(item, 1, simtime.At(10*time.Minute))
	if iv.Start != simtime.At(10*time.Minute) || iv.End != wantGC {
		t.Errorf("HoldInterval: got %v", iv)
	}
}

func TestCommitHappyPath(t *testing.T) {
	st, item := chainScenario()
	tr, err := st.Commit(item, 0, simtime.At(time.Minute))
	if err != nil {
		t.Fatalf("Commit hop 1: %v", err)
	}
	if tr.Duration != 1024*time.Millisecond { // 8192 bits at 8 kbit/s
		t.Errorf("Duration: got %v, want 1.024s", tr.Duration)
	}
	if tr.Arrival != simtime.At(time.Minute+1024*time.Millisecond) {
		t.Errorf("Arrival: got %v", tr.Arrival)
	}
	if !st.Holds(item, 1) {
		t.Error("machine 1 should hold the item after the hop")
	}
	h, _ := st.Holder(item, 1)
	if h.End != simtime.At(36*time.Minute) {
		t.Errorf("intermediate copy end: got %v, want 36m", h.End)
	}
	// Capacity at machine 1 reserved during the hold.
	if got := st.Capacity(1).MinAvailable(simtime.Span(simtime.At(10*time.Minute), 1)); got != 1<<20-1024 {
		t.Errorf("capacity during hold: got %d", got)
	}
	if got := st.Capacity(1).MinAvailable(simtime.Span(simtime.At(40*time.Minute), 1)); got != 1<<20 {
		t.Errorf("capacity after gc: got %d", got)
	}

	// Second hop reaches the destination and satisfies the request.
	tr2, err := st.Commit(item, 1, tr.Arrival)
	if err != nil {
		t.Fatalf("Commit hop 2: %v", err)
	}
	id := model.RequestID{Item: item, Index: 0}
	if !st.IsSatisfied(id) {
		t.Error("request should be satisfied")
	}
	if got := st.Satisfied()[id]; got != tr2.Arrival {
		t.Errorf("satisfied arrival: got %v, want %v", got, tr2.Arrival)
	}
	h2, _ := st.Holder(item, 2)
	if h2.End != simtime.Forever {
		t.Errorf("destination copy end: got %v, want Forever", h2.End)
	}
	if len(st.Transfers()) != 2 {
		t.Errorf("Transfers: got %d, want 2", len(st.Transfers()))
	}
}

func TestCommitLateArrivalDoesNotSatisfy(t *testing.T) {
	st, item := chainScenario()
	// Start the final hop after the 30-minute deadline.
	if _, err := st.Commit(item, 0, simtime.At(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit(item, 1, simtime.At(31*time.Minute)); err != nil {
		t.Fatal(err)
	}
	if st.IsSatisfied(model.RequestID{Item: item, Index: 0}) {
		t.Error("late delivery must not satisfy the request")
	}
	// The copy still lands at the destination and is held forever.
	if h, ok := st.Holder(item, 2); !ok || h.End != simtime.Forever {
		t.Errorf("late destination copy: %+v ok=%v", h, ok)
	}
}

func TestCommitRejections(t *testing.T) {
	st, item := chainScenario()
	for _, tc := range []struct {
		name   string
		link   model.LinkID
		start  time.Duration
		substr string
	}{
		{"sender lacks copy", 1, 2 * time.Minute, "does not hold"},
		{"before copy available", 0, 30 * time.Second, "before copy"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := st.Commit(item, tc.link, simtime.At(tc.start))
			if err == nil || !strings.Contains(err.Error(), tc.substr) {
				t.Errorf("got %v, want error containing %q", err, tc.substr)
			}
		})
	}
	// Receiver already holds.
	if _, err := st.Commit(item, 0, simtime.At(2*time.Minute)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit(item, 0, simtime.At(10*time.Minute)); err == nil ||
		!strings.Contains(err.Error(), "already holds") {
		t.Errorf("re-delivery: got %v", err)
	}
	// Link busy: overlapping slot on link 1 after committing one.
	if _, err := st.Commit(item, 1, simtime.At(5*time.Minute)); err != nil {
		t.Fatal(err)
	}
}

func TestCommitLinkBusyAndWindow(t *testing.T) {
	b := testnet.NewBuilder()
	ms := b.Machines(3, 1<<20)
	// Two items at 0; a single narrow link 0→1 (window fits one transfer).
	b.Link(ms[0], ms[1], 0, 2*time.Second, 8000) // 1 KB takes ~1.02s at 8kbps
	b.Link(ms[1], ms[2], 0, time.Hour, 8000)
	b.Link(ms[2], ms[0], 0, time.Hour, 8000)
	itemA := b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[1], time.Hour, model.High)})
	itemB := b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[1], time.Hour, model.Low)})
	st := New(b.Build("narrow"))

	if _, err := st.Commit(itemA, 0, 0); err != nil {
		t.Fatalf("first transfer: %v", err)
	}
	if _, err := st.Commit(itemB, 0, 0); err == nil {
		t.Error("overlapping slot on a serial link must be rejected")
	}
	if _, err := st.Commit(itemB, 0, simtime.At(3*time.Second)); err == nil {
		t.Error("transfer outside the link window must be rejected")
	}
}

func TestCommitCapacityExhaustion(t *testing.T) {
	b := testnet.NewBuilder()
	ms := b.Machines(3, 1500) // machine capacity fits one 1 KB item only
	b.Link(ms[0], ms[1], 0, time.Hour, 80000)
	b.Link(ms[1], ms[2], 0, time.Hour, 80000)
	b.Link(ms[2], ms[0], 0, time.Hour, 80000)
	itemA := b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[2], 30*time.Minute, model.High)})
	itemB := b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[2], 30*time.Minute, model.Low)})
	st := New(b.Build("tight"))

	if _, err := st.Commit(itemA, 0, 0); err != nil {
		t.Fatalf("itemA hop: %v", err)
	}
	// itemB cannot stage at machine 1 while itemA's copy occupies it.
	if _, err := st.Commit(itemB, 0, simtime.At(time.Minute)); err == nil ||
		!strings.Contains(err.Error(), "lacks") {
		t.Error("capacity exhaustion must reject the transfer")
	}
	// After itemA's copy is garbage collected (30m deadline + 6m γ), itemB fits.
	if _, err := st.Commit(itemB, 0, simtime.At(37*time.Minute)); err != nil {
		t.Errorf("post-gc transfer should fit: %v", err)
	}
}

func TestTransferOutlivingIntermediateCopyRejected(t *testing.T) {
	b := testnet.NewBuilder()
	ms := b.Machines(3, 1<<20)
	b.Link(ms[0], ms[1], 0, 24*time.Hour, 8000)
	// Slow onward link: 1 KB at 8 kbit/s = 1.024s, fine; but we start the
	// onward transfer just before garbage collection.
	b.Link(ms[1], ms[2], 0, 24*time.Hour, 8)
	b.Link(ms[2], ms[0], 0, 24*time.Hour, 8000)
	item := b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[2], 10*time.Minute, model.High)})
	st := New(b.Build("gc-race"))

	if _, err := st.Commit(item, 0, 0); err != nil {
		t.Fatal(err)
	}
	// Copy at machine 1 lives until 16m. A transfer at 8 kbit/s... the slow
	// link at 8 bit/s needs 1024s ≈ 17m > remaining hold time.
	_, err := st.Commit(item, 1, simtime.At(2*time.Minute))
	if err == nil || !strings.Contains(err.Error(), "outlives") {
		t.Errorf("transfer outliving source copy: got %v", err)
	}
}

func TestFloorBlocksPastTransfers(t *testing.T) {
	st, item := chainScenario()
	if st.Floor() != 0 {
		t.Errorf("fresh floor: %v", st.Floor())
	}
	st.SetFloor(simtime.At(10 * time.Minute))
	if _, err := st.Commit(item, 0, simtime.At(5*time.Minute)); err == nil ||
		!strings.Contains(err.Error(), "floor") {
		t.Errorf("pre-floor commit: got %v", err)
	}
	if _, err := st.Commit(item, 0, simtime.At(10*time.Minute)); err != nil {
		t.Errorf("at-floor commit: %v", err)
	}
}

func TestFailLink(t *testing.T) {
	st, item := chainScenario()
	st.FailLink(0, simtime.At(5*time.Minute))
	// A later failure time does not undo an earlier one.
	st.FailLink(0, simtime.At(10*time.Minute))
	// Transfers overlapping the outage are rejected; earlier ones fit.
	if _, err := st.Commit(item, 0, simtime.At(6*time.Minute)); err == nil {
		t.Error("commit into failed link accepted")
	}
	if _, err := st.Commit(item, 0, simtime.At(time.Minute)); err != nil {
		t.Errorf("pre-failure commit: %v", err)
	}
	if st.LinkTimeline(0) == nil {
		t.Error("LinkTimeline accessor broken")
	}
}

func TestPhysGroups(t *testing.T) {
	b := testnet.NewBuilder()
	ms := b.Machines(2, 1<<20)
	w1 := simtime.Interval{Start: simtime.At(time.Hour), End: simtime.At(2 * time.Hour)}
	w2 := simtime.Interval{Start: 0, End: simtime.At(30 * time.Minute)}
	b.LinkWindows(ms[0], ms[1], 8000, w1, w2) // one physical link, two windows
	b.Link(ms[0], ms[1], 0, time.Hour, 16000) // second physical link
	b.Link(ms[1], ms[0], 0, time.Hour, 8000)
	b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[1], time.Hour, model.High)})
	st := New(b.Build("phys"))

	groups := st.PhysGroups(0)
	if len(groups) != 2 {
		t.Fatalf("PhysGroups(0): got %d groups, want 2", len(groups))
	}
	if len(groups[0].Links) != 2 {
		t.Fatalf("first group: got %d links, want 2", len(groups[0].Links))
	}
	// Windows within a group sorted by start.
	net := st.Scenario().Network
	if net.Link(groups[0].Links[0]).Window.Start != 0 {
		t.Error("group links not sorted by window start")
	}
	if got := st.PhysGroups(1); len(got) != 1 {
		t.Errorf("PhysGroups(1): got %d groups", len(got))
	}
}

// TestPhysGroupFirstOpen pins the closed-window skip of the relax loop:
// MaxEnd is the prefix maximum of the group's window ends, FirstOpen
// returns the first link whose window, or an earlier one's, ends after
// ready, and no link it skips fits a transfer ready then, not even one of
// zero length. fits says whether the first link not skipped fits one.
func TestPhysGroupFirstOpen(t *testing.T) {
	h := func(n int) simtime.Instant { return simtime.At(time.Duration(n) * time.Hour) }
	iv := func(a, b int) simtime.Interval { return simtime.Interval{Start: h(a), End: h(b)} }
	cases := []struct {
		name    string
		windows []simtime.Interval // sorted by start
		ready   simtime.Instant
		d       time.Duration
		want    int
		fits    bool
	}{
		{"first window still open", []simtime.Interval{iv(1, 2), iv(3, 4)}, h(0), time.Minute, 0, true},
		{"ready exactly at a window end", []simtime.Interval{iv(1, 2), iv(3, 4)}, h(2), time.Minute, 1, true},
		{"d == 0 exactly at a window end", []simtime.Interval{iv(1, 2), iv(3, 4)}, h(2), 0, 1, true},
		{"d == 0 just before a window end", []simtime.Interval{iv(1, 2), iv(3, 4)}, h(2) - 1, 0, 0, true},
		{"overlap: a long first window keeps the prefix open", []simtime.Interval{iv(0, 5), iv(1, 2), iv(3, 4)}, h(3), time.Minute, 0, true},
		{"overlap: the prefix maximum, not the link's own end", []simtime.Interval{iv(0, 2), iv(1, 4), iv(2, 3)}, h(3), 0, 1, true},
		{"every window closed", []simtime.Interval{iv(0, 1), iv(1, 3), iv(2, 3)}, h(3), 0, 3, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := testnet.NewBuilder()
			ms := b.Machines(2, 1<<20)
			b.LinkWindows(ms[0], ms[1], 8000, tc.windows...)
			b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
				[]model.Request{testnet.Req(ms[1], 5*time.Hour, model.High)})
			st := New(b.Build("first-open"))
			g := &st.PhysGroups(0)[0]
			end := simtime.Instant(0)
			for i, id := range g.Links {
				end = simtime.MaxInstant(end, st.Scenario().Network.Link(id).Window.End)
				if g.MaxEnd[i] != end {
					t.Fatalf("MaxEnd[%d] = %v, want the prefix maximum %v", i, g.MaxEnd[i], end)
				}
			}
			got := g.FirstOpen(tc.ready)
			if got != tc.want {
				t.Fatalf("FirstOpen(%v) = %d, want %d", tc.ready, got, tc.want)
			}
			for _, id := range g.Links[:got] {
				if slot, ok := st.EarliestTransferSlot(id, tc.ready, tc.d); ok {
					t.Errorf("skipped link %d fits a %v transfer ready at %v at %v", id, tc.d, tc.ready, slot)
				}
			}
			if got < len(g.Links) {
				if _, ok := st.EarliestTransferSlot(g.Links[got], tc.ready, tc.d); ok != tc.fits {
					t.Errorf("first link not skipped fits: %v, want %v", ok, tc.fits)
				}
			}
		})
	}
}
