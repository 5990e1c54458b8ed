package dynamic

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"datastaging/internal/core"
	"datastaging/internal/gen"
	"datastaging/internal/model"
	"datastaging/internal/scenario"
	"datastaging/internal/simtime"
	"datastaging/internal/testnet"
	"datastaging/internal/validator"
)

func cfgC4() core.Config {
	return core.Config{
		Heuristic: core.FullPathOneDest,
		Criterion: core.C4,
		EU:        core.EUFromLog10(2),
		Weights:   model.Weights1x10x100,
	}
}

func TestSimulateNoEventsMatchesStatic(t *testing.T) {
	sc := testnet.Generate(func() gen.Params {
		p := gen.Default()
		p.Machines = gen.IntRange{Min: 6, Max: 6}
		p.RequestsPerMachine = gen.IntRange{Min: 8, Max: 8}
		return p
	}(), 5)
	dyn, err := Simulate(sc, cfgC4(), nil)
	if err != nil {
		t.Fatal(err)
	}
	static, err := core.Schedule(sc, cfgC4())
	if err != nil {
		t.Fatal(err)
	}
	if len(dyn.Transfers) != len(static.Transfers) {
		t.Fatalf("transfers: dynamic %d vs static %d", len(dyn.Transfers), len(static.Transfers))
	}
	for i := range dyn.Transfers {
		if dyn.Transfers[i] != static.Transfers[i] {
			t.Fatalf("transfer %d differs", i)
		}
	}
	if dyn.Replans != 1 || len(dyn.Aborted) != 0 {
		t.Errorf("no-event outcome: %d replans, %d aborted", dyn.Replans, len(dyn.Aborted))
	}
}

func TestSimulateRejectsBadInput(t *testing.T) {
	sc := testnet.Line(3, 1024, 8000, time.Hour)
	if _, err := Simulate(sc, core.Config{}, nil); err == nil {
		t.Error("invalid config accepted")
	}
	for _, ev := range []Event{
		{Kind: ItemRelease, Item: 99},
		{Kind: LinkFail, Link: 99},
		{Kind: EventKind(9)},
		{Kind: LinkFail, Link: 0, At: -1},
	} {
		if _, err := Simulate(sc, cfgC4(), []Event{ev}); err == nil {
			t.Errorf("bad event %+v accepted", ev)
		}
	}
}

func TestSimulateLateReleaseSchedulesAfterArrival(t *testing.T) {
	sc := testnet.Line(3, 1024, 8000, time.Hour)
	release := simtime.At(10 * time.Minute)
	out, err := Simulate(sc, cfgC4(), []Event{{At: release, Kind: ItemRelease, Item: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Satisfied) != 1 {
		t.Fatalf("satisfied %d, want 1 (deadline 1h leaves room)", len(out.Satisfied))
	}
	if out.Replans != 2 {
		t.Errorf("replans: got %d, want 2", out.Replans)
	}
	for _, tr := range out.Transfers {
		if tr.Start.Before(release) {
			t.Errorf("transfer starts %v before the request was known (%v)", tr.Start, release)
		}
	}
	if err := validator.Validate(sc, out.Transfers); err != nil {
		t.Errorf("dynamic schedule invalid: %v", err)
	}
}

func TestSimulateReleaseAfterDeadlineUnsatisfiable(t *testing.T) {
	sc := testnet.Line(3, 1024, 8000, 30*time.Minute)
	out, err := Simulate(sc, cfgC4(), []Event{{At: simtime.At(time.Hour), Kind: ItemRelease, Item: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Satisfied) != 0 {
		t.Error("request released after its deadline cannot be satisfied")
	}
	if len(out.Transfers) != 0 {
		t.Errorf("no transfers should be committed, got %d", len(out.Transfers))
	}
}

// failureFixture: source 0 → intermediate 1 → destination 2 over two
// parallel physical links 1→2 (primary and backup). The backhaul 0→1 link
// has a window that closes early, so after a failure the only viable
// source for re-delivery is the copy retained at the intermediate.
func failureFixture(t *testing.T) (*scenario.Scenario, model.LinkID) {
	t.Helper()
	b := testnet.NewBuilder()
	ms := b.Machines(3, 1<<30)
	// 0→1 available only during the first 2 minutes.
	b.Link(ms[0], ms[1], 0, 2*time.Minute, 80_000) // 1 MB item: ~105 s
	primary := b.Link(ms[1], ms[2], 0, 24*time.Hour, 80_000)
	b.Link(ms[1], ms[2], 0, 24*time.Hour, 40_000) // backup, slower
	b.Link(ms[2], ms[0], 0, 24*time.Hour, 80_000)
	b.Item(1_000_000, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[2], 30*time.Minute, model.High)})
	return b.Build("failover"), primary
}

func TestLinkFailureRecoversFromIntermediateCopy(t *testing.T) {
	sc, primary := failureFixture(t)
	// Fail the primary 1→2 link while the second hop is in flight
	// (first hop ends ~105 s; second hop runs ~105 s more).
	fail := simtime.At(3 * time.Minute)
	out, err := Simulate(sc, cfgC4(), []Event{{At: fail, Kind: LinkFail, Link: primary}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Aborted) == 0 {
		t.Fatal("expected the in-flight transfer to abort")
	}
	if len(out.Satisfied) != 1 {
		t.Fatalf("request should be re-satisfied from the intermediate copy; satisfied=%d", len(out.Satisfied))
	}
	// The recovery transfer must depart the intermediate (machine 1), not
	// the source: the 0→1 window is long gone.
	last := out.Transfers[len(out.Transfers)-1]
	if last.From != 1 || last.To != 2 {
		t.Errorf("recovery hop: got %d→%d, want 1→2", last.From, last.To)
	}
	if last.Start.Before(fail) {
		t.Errorf("recovery starts %v, before the failure at %v", last.Start, fail)
	}
}

func TestLinkFailureWithoutIntermediateCopyLosesRequest(t *testing.T) {
	// Same network but the item is requested straight off the source and
	// the only 0→... wait: fail the 0→1 link itself mid-flight — there is
	// no staged copy anywhere, and the window never reopens.
	b := testnet.NewBuilder()
	ms := b.Machines(3, 1<<30)
	first := b.Link(ms[0], ms[1], 0, 2*time.Minute, 80_000)
	b.Link(ms[1], ms[2], 0, 24*time.Hour, 80_000)
	b.Link(ms[2], ms[0], 0, 24*time.Hour, 80_000)
	b.Item(1_000_000, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[2], 30*time.Minute, model.High)})
	sc := b.Build("lost")

	out, err := Simulate(sc, cfgC4(), []Event{{At: simtime.At(time.Minute), Kind: LinkFail, Link: first}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Satisfied) != 0 {
		t.Error("request should be lost: the only copy never left the source")
	}
	if len(out.Aborted) < 1 {
		t.Error("the in-flight first hop should abort")
	}
}

func TestCascadingAbort(t *testing.T) {
	// Fail the first-hop link mid-flight; the downstream second hop that
	// depended on the staged copy must cascade-abort even though its own
	// link is healthy.
	b := testnet.NewBuilder()
	ms := b.Machines(3, 1<<30)
	first := b.Link(ms[0], ms[1], 0, 24*time.Hour, 80_000)
	b.Link(ms[1], ms[2], 0, 24*time.Hour, 80_000)
	b.Link(ms[2], ms[0], 0, 24*time.Hour, 80_000)
	b.Item(1_000_000, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[2], 10*time.Minute, model.High)})
	sc := b.Build("cascade")

	// First hop spans [0, ~105s). Fail at 60 s.
	out, err := Simulate(sc, cfgC4(), []Event{{At: simtime.At(time.Minute), Kind: LinkFail, Link: first}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Aborted) != 2 {
		t.Fatalf("aborted: got %d, want 2 (hop and its downstream)", len(out.Aborted))
	}
	// The link is gone for good, so nothing can be satisfied.
	if len(out.Satisfied) != 0 {
		t.Error("satisfied should be empty after losing the only path")
	}
}

// TestHarmlessFailureLeavesScheduleIntact: failing a link the schedule
// never uses must reproduce the static schedule exactly, transfer for
// transfer, across the replay-and-replan cycle.
func TestHarmlessFailureLeavesScheduleIntact(t *testing.T) {
	sc := testnet.Generate(func() gen.Params {
		p := gen.Default()
		p.Machines = gen.IntRange{Min: 5, Max: 5}
		p.RequestsPerMachine = gen.IntRange{Min: 6, Max: 6}
		return p
	}(), 9)
	static, err := core.Schedule(sc, cfgC4())
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[model.LinkID]bool)
	for _, tr := range static.Transfers {
		used[tr.Link] = true
	}
	var unused model.LinkID = -1
	for id := range sc.Network.Links {
		if !used[model.LinkID(id)] {
			unused = model.LinkID(id)
			break
		}
	}
	if unused < 0 {
		t.Skip("every link used; pick another seed")
	}
	out, err := Simulate(sc, cfgC4(), []Event{{At: simtime.At(time.Minute), Kind: LinkFail, Link: unused}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Aborted) != 0 {
		t.Fatalf("harmless failure aborted %d transfers", len(out.Aborted))
	}
	if len(out.Transfers) != len(static.Transfers) {
		t.Fatalf("transfers: %d vs static %d", len(out.Transfers), len(static.Transfers))
	}
	for i := range out.Transfers {
		if out.Transfers[i] != static.Transfers[i] {
			t.Fatalf("transfer %d differs from static", i)
		}
	}
}

func TestSimultaneousEventsOneEpoch(t *testing.T) {
	sc := testnet.Line(4, 1024, 8000, time.Hour)
	at := simtime.At(5 * time.Minute)
	out, err := Simulate(sc, cfgC4(), []Event{
		{At: at, Kind: ItemRelease, Item: 0},
		{At: at, Kind: LinkFail, Link: 5}, // reverse link, harmless
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Replans != 2 {
		t.Errorf("simultaneous events should share one epoch: %d replans", out.Replans)
	}
	if len(out.Satisfied) != 1 {
		t.Errorf("satisfied %d, want 1", len(out.Satisfied))
	}
}

// TestSimulateReportsCallerIDs pins Simulate's item numbering: it plans
// over the items in (release instant, ID) order, but the Outcome speaks the
// caller's IDs, and an item's release is its earliest ItemRelease event.
// Releases are drawn out of ID order in the shape of the arrival sweep's
// (a random half of the items, each at an instant before half its earliest
// deadline); item a is released at both 0 and its latest deadline, item b
// twice — early, and again at its latest deadline. A release at an item's
// latest deadline leaves it unsatisfiable, so a satisfied request of a or b
// shows that the earlier release won.
func TestSimulateReportsCallerIDs(t *testing.T) {
	sc := testnet.Generate(func() gen.Params {
		p := gen.Default()
		p.Machines = gen.IntRange{Min: 6, Max: 6}
		p.RequestsPerMachine = gen.IntRange{Min: 6, Max: 6}
		return p
	}(), 11)
	cfg := cfgC4()
	static, err := core.Schedule(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var satItems []model.ItemID
	for id := range static.Satisfied {
		satItems = append(satItems, id.Item)
	}
	sort.Slice(satItems, func(i, j int) bool { return satItems[i] < satItems[j] })
	a, b := satItems[0], satItems[len(satItems)-1]

	rng := rand.New(rand.NewSource(11))
	release := make([]simtime.Instant, len(sc.Items)) // earliest release per item
	var events []Event
	for i := range sc.Items {
		id := model.ItemID(i)
		it := &sc.Items[i]
		earliest := simtime.Never
		for _, rq := range it.Requests {
			earliest = min(earliest, rq.Deadline)
		}
		switch {
		case id == a:
			events = append(events, Event{At: 0, Kind: ItemRelease, Item: id})
		case id == b:
			release[i] = earliest / 4
			events = append(events, Event{At: release[i], Kind: ItemRelease, Item: id})
		case rng.Intn(2) == 0:
			release[i] = simtime.Instant(rng.Int63n(int64(earliest) / 2))
			events = append(events, Event{At: release[i], Kind: ItemRelease, Item: id})
		default:
			continue
		}
		if id == a || id == b {
			events = append(events, Event{At: it.LatestDeadline(), Kind: ItemRelease, Item: id})
		}
	}
	rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })

	order := make([]model.ItemID, len(sc.Items)) // planning order, in caller IDs
	for i := range order {
		order[i] = model.ItemID(i)
	}
	sort.SliceStable(order, func(i, j int) bool { return release[order[i]] < release[order[j]] })
	if sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
		t.Fatal("fixture releases items in ID order; the mapping goes untested")
	}

	out, err := Simulate(sc, cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	if err := validator.Validate(sc, out.Transfers); err != nil {
		t.Fatalf("outcome invalid against the caller's scenario: %v", err)
	}
	want, err := validator.SatisfiedSet(sc, out.Transfers)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Satisfied, want) {
		t.Fatalf("Satisfied is not in the caller's IDs: %d entries, transfers satisfy %d", len(out.Satisfied), len(want))
	}
	for _, id := range []model.ItemID{a, b} {
		satisfied := false
		for rq := range out.Satisfied {
			satisfied = satisfied || rq.Item == id
		}
		if !satisfied {
			t.Errorf("item %d: nothing satisfied; its later release won", id)
		}
	}
	for _, tr := range out.Transfers {
		if tr.Item == b && tr.Start < release[b] {
			t.Errorf("item %d moves at %v, before its release %v", b, tr.Start, release[b])
		}
	}

	// The same items pre-sorted into release order, with the same events
	// renumbered: Simulate's numbering is then the identity, and mapping
	// its outcome back must reproduce the first run.
	pos := make([]model.ItemID, len(order)) // caller ID -> pre-sorted ID
	sorted := *sc
	sorted.Items = make([]model.Item, len(order))
	for k, id := range order {
		pos[id] = model.ItemID(k)
		sorted.Items[k] = sc.Items[id]
		sorted.Items[k].ID = model.ItemID(k)
	}
	sortedEvents := make([]Event, len(events))
	for i, ev := range events {
		ev.Item = pos[ev.Item]
		sortedEvents[i] = ev
	}
	ref, err := Simulate(&sorted, cfg, sortedEvents)
	if err != nil {
		t.Fatal(err)
	}
	if out.Replans != ref.Replans || len(out.Transfers) != len(ref.Transfers) || len(out.Satisfied) != len(ref.Satisfied) {
		t.Fatalf("outcome %d replans, %d transfers, %d satisfied; pre-sorted run %d, %d, %d",
			out.Replans, len(out.Transfers), len(out.Satisfied), ref.Replans, len(ref.Transfers), len(ref.Satisfied))
	}
	for i, tr := range ref.Transfers {
		tr.Item = order[tr.Item]
		if out.Transfers[i] != tr {
			t.Fatalf("transfer %d: %+v, pre-sorted run maps to %+v", i, out.Transfers[i], tr)
		}
	}
	for rq, at := range ref.Satisfied {
		rq.Item = order[rq.Item]
		if got, ok := out.Satisfied[rq]; !ok || got != at {
			t.Fatalf("request %v: satisfied %v (%v), pre-sorted run %v", rq, got, ok, at)
		}
	}
}
