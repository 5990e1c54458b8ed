// Package state holds the mutable resource picture the scheduling
// heuristics work against: per-virtual-link occupancy, per-machine capacity
// profiles, the set of machines currently holding a copy of each item, and
// the transfers committed so far. The heuristics in internal/core decide
// *what* to transfer; this package enforces *whether it fits* and keeps the
// books.
package state

import (
	"fmt"
	"sort"
	"time"

	"datastaging/internal/model"
	"datastaging/internal/obs"
	"datastaging/internal/resource"
	"datastaging/internal/scenario"
	"datastaging/internal/simtime"
)

// Holder records one copy of an item: the machine that has it, when it
// becomes available there, and when the copy disappears (simtime.Forever for
// initial sources and final destinations, the item's garbage-collection
// instant for intermediates — paper §4.4, §5.3).
type Holder struct {
	Machine model.MachineID
	Avail   simtime.Instant
	End     simtime.Instant
}

// Transfer is one committed communication step: item moved across one
// virtual link.
type Transfer struct {
	Item     model.ItemID
	Link     model.LinkID
	From     model.MachineID
	To       model.MachineID
	Start    simtime.Instant
	Duration time.Duration
	Arrival  simtime.Instant
}

// State is the live resource bookkeeping for one scheduling run.
type State struct {
	sc    *scenario.Scenario
	links []*resource.LinkTimeline
	caps  []*resource.Capacity

	// sendPort and recvPort serialize per-machine transfers when the
	// scenario enables SerialTransfers (§3 future work); nil otherwise.
	sendPort []*resource.LinkTimeline
	recvPort []*resource.LinkTimeline

	// holders[i] lists the copies of item i in the order they appeared
	// (sources first, then staged copies in commit order). Membership tests
	// scan the slice: a holder list is bounded by the item's staging route,
	// a handful of machines, so a linear scan beats a per-item map — and,
	// unlike a map, costs zero allocations to set up, which matters because
	// the online service initializes items on the admission path.
	holders [][]Holder

	transfers []Transfer
	// trOf[i] indexes transfers by item: the positions of item i's
	// transfers in commit order, so TransfersFor is O(route length) instead
	// of a scan over the whole committed history.
	trOf      [][]int32
	satisfied map[model.RequestID]simtime.Instant
	// satLog records satisfied requests in satisfaction order, append-only
	// for the lifetime of the state. Incremental consumers (the serve
	// layer's weighted-value tracker) remember how much of the log they
	// have folded in and walk only the new suffix each epoch.
	satLog []model.RequestID

	// floor is the earliest instant new transfers may start; the dynamic
	// simulator advances it to "now" so re-planning cannot rewrite the
	// past. Zero (the epoch) for static scheduling.
	floor simtime.Instant

	// physOut[u] groups machine u's outgoing virtual links by physical
	// link, each group sorted by window start; the shortest-path relaxation
	// walks these groups with early exit.
	physOut [][]PhysGroup

	// Slot-query metrics, wired by SetObs (nil — disabled — otherwise;
	// obs instruments are nil-safe and atomic, so the hot path calls them
	// unconditionally and concurrent readers may share them).
	mSlotQuery, mSlotFast *obs.Counter
}

// PhysGroup is the virtual links of one physical link u→v, sorted by window
// start. All virtual links of one physical link share bandwidth and latency
// by construction, but the scheduler does not rely on that.
type PhysGroup struct {
	To    model.MachineID
	Links []model.LinkID
	// MaxEnd[i] is the latest window end among Links[0..i], a prefix
	// maximum, so it is non-decreasing even where windows overlap. A
	// transfer ready at t fits no window that ends at or before t (the
	// window is half-open, so not even a zero-length one), and FirstOpen
	// uses MaxEnd to skip every such link at the front of the group.
	MaxEnd []simtime.Instant
}

// FirstOpen returns the index of the first link in g.Links whose window,
// or an earlier one's, ends after ready: every link before it has a window
// that closed at or before ready and so fits no transfer ready then. It is
// len(g.Links) when every window has closed. One comparison answers the
// common case of a group whose first window is still open.
func (g *PhysGroup) FirstOpen(ready simtime.Instant) int {
	if g.MaxEnd[0] > ready {
		return 0
	}
	lo, hi := 1, len(g.MaxEnd)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.MaxEnd[mid] > ready {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// New builds the initial state for a scenario: idle links, full capacity,
// and each item held by its initial sources.
func New(sc *scenario.Scenario) *State {
	st := &State{
		sc:        sc,
		caps:      make([]*resource.Capacity, sc.Network.NumMachines()),
		holders:   make([][]Holder, len(sc.Items)),
		trOf:      make([][]int32, len(sc.Items)),
		satisfied: make(map[model.RequestID]simtime.Instant),
	}
	windows := make([]simtime.Interval, len(sc.Network.Links))
	for i, l := range sc.Network.Links {
		windows[i] = l.Window
	}
	st.links = resource.NewLinkTimelines(windows)
	for i, m := range sc.Network.Machines {
		st.caps[i] = resource.NewCapacity(m.CapacityBytes)
	}
	if sc.SerialTransfers {
		always := simtime.Interval{Start: 0, End: simtime.Forever}
		m := sc.Network.NumMachines()
		pw := make([]simtime.Interval, 2*m)
		for i := range pw {
			pw[i] = always
		}
		ports := resource.NewLinkTimelines(pw)
		st.sendPort = ports[:m]
		st.recvPort = ports[m:]
	}
	for i := range sc.Items {
		st.initItem(i)
	}
	st.buildPhysOut()
	return st
}

// initItem sets up the per-item bookkeeping (the initial source copies) for
// item i of the scenario.
func (st *State) initItem(i int) {
	it := &st.sc.Items[i]
	// Pre-size for the copies a typical schedule adds: the sources plus a
	// few committed hops. Keeps the per-commit bookkeeping off the
	// grow-reallocate path for the common item.
	st.holders[i] = make([]Holder, 0, len(it.Sources)+4)
	st.trOf[i] = make([]int32, 0, 4)
	for _, src := range it.Sources {
		st.addHolder(model.ItemID(i), Holder{
			Machine: src.Machine,
			Avail:   src.Available,
			End:     simtime.Forever,
		})
	}
}

// NumTrackedItems returns how many scenario items the state currently keeps
// books for. It can lag len(Scenario().Items) when the scenario has grown
// (the online service appends admitted items); GrowItems catches up.
func (st *State) NumTrackedItems() int { return len(st.holders) }

// GrowItems extends the per-item bookkeeping to cover items appended to the
// scenario since the state was built (or last grown): new items gain their
// destination sets and initial source copies, exactly as New would have
// created them. Existing bookkeeping is untouched, so a live state can
// follow an append-only growing scenario without a rebuild. Returns the
// number of items added.
func (st *State) GrowItems() int {
	n := len(st.sc.Items)
	added := 0
	for i := len(st.holders); i < n; i++ {
		st.holders = append(st.holders, nil)
		st.trOf = append(st.trOf, nil)
		st.initItem(i)
		added++
	}
	return added
}

func (st *State) buildPhysOut() {
	net := st.sc.Network
	st.physOut = make([][]PhysGroup, net.NumMachines())
	// Every link is in exactly one group, so one backing array holds every
	// group's MaxEnd.
	ends := make([]simtime.Instant, 0, len(net.Links))
	for u := 0; u < net.NumMachines(); u++ {
		byPhys := make(map[int][]model.LinkID)
		var order []int
		for _, id := range net.Outgoing(model.MachineID(u)) {
			p := net.Link(id).Physical
			if _, seen := byPhys[p]; !seen {
				order = append(order, p)
			}
			byPhys[p] = append(byPhys[p], id)
		}
		sort.Ints(order)
		groups := make([]PhysGroup, 0, len(order))
		for _, p := range order {
			ids := byPhys[p]
			sort.Slice(ids, func(a, b int) bool {
				return net.Link(ids[a]).Window.Start < net.Link(ids[b]).Window.Start
			})
			base := len(ends)
			for i, id := range ids {
				end := net.Link(id).Window.End
				if i > 0 {
					end = simtime.MaxInstant(end, ends[len(ends)-1])
				}
				ends = append(ends, end)
			}
			groups = append(groups, PhysGroup{To: net.Link(ids[0]).To, Links: ids, MaxEnd: ends[base:len(ends):len(ends)]})
		}
		st.physOut[u] = groups
	}
}

// Scenario returns the immutable problem instance.
func (st *State) Scenario() *scenario.Scenario { return st.sc }

// AdoptScenario switches the state to a new scenario value that extends the
// current one append-only: identical network, existing items unchanged, new
// items only appended (callers — dynamic.Engine.SetScenario — validate
// this). Existing bookkeeping stays valid because it is keyed by item and
// machine IDs, which the extension preserves; the appended items become
// tracked on the next GrowItems.
func (st *State) AdoptScenario(sc *scenario.Scenario) { st.sc = sc }

// LinkTimeline returns the occupancy timeline of one virtual link. Callers
// must not commit to it directly; use Commit.
func (st *State) LinkTimeline(id model.LinkID) *resource.LinkTimeline { return st.links[id] }

// SerialTransfers reports whether per-machine port serialization is on.
func (st *State) SerialTransfers() bool { return st.sendPort != nil }

// SendPortTimeline returns the occupancy timeline of one machine's send
// port, or nil when the scenario does not serialize transfers. Callers
// must not commit to it directly; use Commit.
func (st *State) SendPortTimeline(m model.MachineID) *resource.LinkTimeline {
	if st.sendPort == nil {
		return nil
	}
	return st.sendPort[m]
}

// RecvPortTimeline is SendPortTimeline for the receive port.
func (st *State) RecvPortTimeline(m model.MachineID) *resource.LinkTimeline {
	if st.recvPort == nil {
		return nil
	}
	return st.recvPort[m]
}

// SetObs wires the state's slot-query counters into the registry:
// state.slot_query_total counts every EarliestTransferSlot call and
// state.slot_fastpath_total the calls served without materializing an
// intersection set or re-searching the timeline (the fused kernel in
// serialized mode, a valid cursor hint otherwise). A nil Obs (the
// default) leaves the counters disabled at the cost of one branch.
func (st *State) SetObs(o *obs.Obs) {
	if o == nil {
		return
	}
	st.mSlotQuery = o.Counter("state.slot_query_total")
	st.mSlotFast = o.Counter("state.slot_fastpath_total")
}

// EarliestTransferSlot returns the earliest instant t >= ready at which a
// transfer of duration d can start on the link: free link time inside the
// window, and — when the scenario serializes transfers — a free send port
// at the sender and a free receive port at the receiver for the whole
// duration.
//
// This is the innermost primitive of every edge relaxation in the
// resource-aware Dijkstra, so both paths are allocation-free: the
// single-link query rides the link's monotone cursor hint, and the
// serialized query is the fused three-way intersect-fit kernel
// (simtime.EarliestFitN), bit-identical to intersecting the three free
// sets first (EarliestTransferSlotSlow in export_test.go, which the
// differential tests pin it against) without building them.
func (st *State) EarliestTransferSlot(id model.LinkID, ready simtime.Instant, d time.Duration) (simtime.Instant, bool) {
	st.mSlotQuery.Inc()
	if st.sendPort == nil {
		t, ok, hinted := st.links[id].EarliestSlotHinted(ready, d)
		if hinted {
			st.mSlotFast.Inc()
		}
		return t, ok
	}
	st.mSlotFast.Inc()
	l := st.sc.Network.Link(id)
	return simtime.EarliestFitN(ready, d,
		st.links[id].Free(), st.sendPort[l.From].Free(), st.recvPort[l.To].Free())
}

// Capacity returns the capacity profile of one machine. Callers must not
// reserve on it directly; use Commit.
func (st *State) Capacity(m model.MachineID) *resource.Capacity { return st.caps[m] }

// PhysGroups returns machine u's outgoing virtual links grouped by physical
// link, each group sorted by window start.
func (st *State) PhysGroups(u model.MachineID) []PhysGroup { return st.physOut[u] }

// Holders returns the copies of an item. The slice is shared; do not
// mutate.
func (st *State) Holders(item model.ItemID) []Holder { return st.holders[item] }

// Holds reports whether machine m has (or is scheduled to receive) a copy
// of the item.
func (st *State) Holds(item model.ItemID, m model.MachineID) bool {
	for i := range st.holders[item] {
		if st.holders[item][i].Machine == m {
			return true
		}
	}
	return false
}

// Holder returns machine m's copy of the item.
func (st *State) Holder(item model.ItemID, m model.MachineID) (Holder, bool) {
	for i := range st.holders[item] {
		if st.holders[item][i].Machine == m {
			return st.holders[item][i], true
		}
	}
	return Holder{}, false
}

// IsDestination reports whether m is a requesting machine of the item.
func (st *State) IsDestination(item model.ItemID, m model.MachineID) bool {
	rqs := st.sc.Item(item).Requests
	for i := range rqs {
		if rqs[i].Machine == m {
			return true
		}
	}
	return false
}

// HoldEnd returns when a copy of the item delivered to machine m would be
// removed: never for a final destination, γ after the item's latest
// deadline for an intermediate (§4.4).
func (st *State) HoldEnd(item model.ItemID, m model.MachineID) simtime.Instant {
	if st.IsDestination(item, m) {
		return simtime.Forever
	}
	return st.sc.GCInstant(st.sc.Item(item))
}

// HoldInterval returns the capacity reservation a copy of the item arriving
// at machine m at the given instant requires.
func (st *State) HoldInterval(item model.ItemID, m model.MachineID, arrival simtime.Instant) simtime.Interval {
	return simtime.Interval{Start: arrival, End: st.HoldEnd(item, m)}
}

func (st *State) addHolder(item model.ItemID, h Holder) {
	st.holders[item] = append(st.holders[item], h)
}

// Commit schedules the transfer of an item over one virtual link starting
// at the given instant. It verifies every model constraint — the sending
// machine holds a copy covering the whole transfer, the link slot is free
// inside the window, the receiving machine does not already hold the item
// and can store it until its hold end — then books the link slot and the
// capacity, records the receiving machine as a new holder, and marks any
// request at that machine satisfied if the copy arrives by its deadline.
func (st *State) Commit(item model.ItemID, link model.LinkID, start simtime.Instant) (Transfer, error) {
	l := st.sc.Network.Link(link)
	it := st.sc.Item(item)
	d := l.TransferDuration(it.SizeBytes)
	arrival := start.Add(d)

	if start.Before(st.floor) {
		return Transfer{}, fmt.Errorf("state: transfer start %v before planning floor %v", start, st.floor)
	}
	src, ok := st.Holder(item, l.From)
	if !ok {
		return Transfer{}, fmt.Errorf("state: machine %d does not hold item %d", l.From, item)
	}
	if start.Before(src.Avail) {
		return Transfer{}, fmt.Errorf("state: transfer of item %d starts %v before copy at %d is available (%v)",
			item, start, l.From, src.Avail)
	}
	if src.End != simtime.Forever && arrival.After(src.End) {
		return Transfer{}, fmt.Errorf("state: transfer of item %d outlives copy at %d (ends %v)",
			item, l.From, src.End)
	}
	if st.Holds(item, l.To) {
		return Transfer{}, fmt.Errorf("state: machine %d already holds item %d", l.To, item)
	}
	hold := st.HoldInterval(item, l.To, arrival)
	if !st.caps[l.To].CanReserve(it.SizeBytes, hold) {
		return Transfer{}, fmt.Errorf("state: machine %d lacks %d bytes over %v for item %d",
			l.To, it.SizeBytes, hold, item)
	}
	if st.sendPort != nil {
		if !st.sendPort[l.From].CanCommit(start, d) {
			return Transfer{}, fmt.Errorf("state: machine %d send port busy at %v", l.From, start)
		}
		if !st.recvPort[l.To].CanCommit(start, d) {
			return Transfer{}, fmt.Errorf("state: machine %d receive port busy at %v", l.To, start)
		}
	}
	if err := st.links[link].Commit(start, d); err != nil {
		return Transfer{}, fmt.Errorf("state: item %d on link %d: %w", item, link, err)
	}
	if st.sendPort != nil {
		// CanCommit was verified above; these cannot fail.
		if err := st.sendPort[l.From].Commit(start, d); err != nil {
			return Transfer{}, fmt.Errorf("state: send port raced: %w", err)
		}
		if err := st.recvPort[l.To].Commit(start, d); err != nil {
			return Transfer{}, fmt.Errorf("state: receive port raced: %w", err)
		}
	}
	if err := st.caps[l.To].Reserve(it.SizeBytes, hold); err != nil {
		// Unreachable after CanReserve, but keep the books consistent.
		return Transfer{}, fmt.Errorf("state: capacity reservation raced: %w", err)
	}

	st.addHolder(item, Holder{Machine: l.To, Avail: arrival, End: hold.End})
	tr := Transfer{
		Item: item, Link: link, From: l.From, To: l.To,
		Start: start, Duration: d, Arrival: arrival,
	}
	if st.transfers == nil {
		// First booking: reserve room for a few transfers per item so the
		// epoch's commits extend in place instead of re-copying the log.
		st.transfers = make([]Transfer, 0, 4*len(st.sc.Items))
	}
	st.trOf[item] = append(st.trOf[item], int32(len(st.transfers)))
	st.transfers = append(st.transfers, tr)

	for k, rq := range it.Requests {
		if rq.Machine == l.To && !arrival.After(rq.Deadline) {
			id := model.RequestID{Item: item, Index: k}
			if _, done := st.satisfied[id]; !done {
				st.satisfied[id] = arrival
				st.satLog = append(st.satLog, id)
			}
		}
	}
	return tr, nil
}

// SetFloor forbids new transfers from starting before t. Used by the
// dynamic simulator after replaying history: planning happens at time t and
// cannot occupy the past.
func (st *State) SetFloor(t simtime.Instant) { st.floor = t }

// Floor returns the earliest instant new transfers may start.
func (st *State) Floor() simtime.Instant { return st.floor }

// FailLink removes the virtual link's availability from instant t onward:
// no new transfer can be booked into [t, ∞), and a replayed transfer still
// in flight at t will fail to commit. Idempotent; an earlier failure time
// wins.
func (st *State) FailLink(id model.LinkID, t simtime.Instant) {
	st.links[id].Block(simtime.Interval{Start: t, End: simtime.Forever})
}

// Transfers returns the committed schedule in commit order. The slice is
// shared; do not mutate.
func (st *State) Transfers() []Transfer { return st.transfers }

// TransfersFor returns the committed transfers of one item in commit order —
// the item's staging route through the network. The admission service
// reports this as an admitted request's committed route. Served from the
// per-item index, so the cost is the route length, not the history length.
// The returned slice is freshly allocated.
func (st *State) TransfersFor(item model.ItemID) []Transfer {
	idx := st.trOf[item]
	if len(idx) == 0 {
		return nil
	}
	out := make([]Transfer, len(idx))
	for k, i := range idx {
		out[k] = st.transfers[i]
	}
	return out
}

// Satisfied returns the arrival instant of every satisfied request. The map
// is shared; do not mutate.
func (st *State) Satisfied() map[model.RequestID]simtime.Instant { return st.satisfied }

// IsSatisfied reports whether the request has been satisfied.
func (st *State) IsSatisfied(id model.RequestID) bool {
	_, ok := st.satisfied[id]
	return ok
}

// SatisfiedLog returns every satisfied request in satisfaction order. The
// slice is shared and append-only: entries once returned never change, so a
// caller may remember an offset and later re-read only the suffix beyond it
// (as long as it is reading the same State — a rebuilt state starts a fresh
// log).
func (st *State) SatisfiedLog() []model.RequestID { return st.satLog }
