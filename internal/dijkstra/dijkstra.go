// Package dijkstra implements the paper's adaptation of Dijkstra's
// multiple-source shortest-path algorithm (§4.2) to the data staging model.
//
// For one requested data item, every machine currently holding a copy is a
// source labeled with the instant its copy becomes available. The label of
// any other machine is the earliest instant a copy could *arrive* there,
// where traversing a virtual link means finding the earliest free slot on
// that link at or after the copy is ready at the sending machine, entirely
// inside the link's availability window, short enough that the sending
// machine still holds its copy when the transfer completes, and such that
// the receiving machine can store the copy until its own hold end (garbage
// collection for intermediates, forever for destinations).
//
// Earliest-slot queries are monotone in the ready time, so label-setting
// Dijkstra remains exact for arrival times: when a machine is popped its
// label is the true earliest arrival achievable in the current resource
// state (given the model decision that capacity feasibility is checked at
// the earliest arrival — see DESIGN.md §2). The same monotonicity is what
// the interval kernels under each relax step exploit: the slot query rides
// a per-link cursor hint (serialized mode fuses link, send-port, and
// receive-port availability without materializing intersection sets) and
// the capacity check is a segment-min index lookup, so one relaxation
// performs zero heap allocations and no from-zero timeline scans — see
// DESIGN.md "Interval kernels".
//
// Two cuts change no label the walk keeps. Every relax step skips the links
// whose window, and every earlier window of the same physical link, closed
// by the sender's ready time (state.PhysGroup.FirstOpen): such a window fits
// no transfer. The forests the planner caches and bounds (ComputeTrimmed,
// ComputeBound) also stop once the last of the item's request machines is
// settled; Compute does not, as it labels every machine for explain and the
// bounds.
//
// Compute only reads the state, so any number of Compute calls may run
// concurrently against the same State. The per-computation working memory
// lives in a Scratch, which is owned by exactly one goroutine at a time; see
// DESIGN.md "Concurrency model".
package dijkstra

import (
	"time"

	"datastaging/internal/model"
	"datastaging/internal/simtime"
	"datastaging/internal/state"
)

// NoMachine and NoLink mark the absence of a predecessor in a Plan.
const (
	NoMachine model.MachineID = -1
	NoLink    model.LinkID    = -1
)

// Plan is the shortest-path forest for one item in one resource state: per
// machine, the earliest achievable arrival and the final hop that achieves
// it. Machines holding the item are roots (Pred == NoMachine) labeled with
// their copy's availability; unreachable machines have Arrival == Never.
// A forest from ComputeTrimmed or ComputeBound also reads Never at every
// machine its walk did not settle (none past the item's latest deadline,
// none after its last request machine), and a trimmed one at every machine
// off the paths it keeps.
type Plan struct {
	Item    model.ItemID
	Arrival []simtime.Instant
	Pred    []model.MachineID
	Via     []model.LinkID
	Start   []simtime.Instant
	Dur     []time.Duration
	// CapBlocked records that some relaxation failed its storage-capacity
	// check during the computation. Capacity is the one feasibility gate
	// that is NOT monotone in the planning floor: a later floor delays the
	// arrival, which SHORTENS the hold interval [arrival, gc end], so a
	// failed CanReserve can flip to success when the floor advances. Every
	// other gate (slot fit, copy lifetime, label domination) only gets
	// harder. A cap-blocked forest therefore cannot be carried across a
	// floor advance, and an item whose forest is cap-blocked cannot be
	// written off as permanently unsatisfiable on this forest's evidence
	// alone: the incremental planner in internal/core asks
	// Scratch.ComputeBound before retiring it.
	CapBlocked bool
	// CapFailed lists, once each, the machines at which a capacity check
	// failed; CapBlocked is exactly len(CapFailed) > 0. Short of delaying
	// the sender's own label (a conflict with the sender's hop), a commit
	// delays a relaxation into a machine only by taking link time into it
	// (or, with serialized transfers, port time), and a delayed arrival
	// shortens the hold, so this is the list the planner's cache checks
	// commits against. Its backing array is recycled with the plan.
	CapFailed []model.MachineID
	// Kept lists, in ascending order, the machines the forest keeps with a
	// planned hop into them (Via != NoLink): every hop the forest plans, so
	// a walk over it costs the hops, not the machines. Its backing array is
	// recycled with the plan.
	Kept []model.MachineID
}

// Hop is one transfer along a planned path.
type Hop struct {
	Link  model.LinkID
	From  model.MachineID
	To    model.MachineID
	Start simtime.Instant
	Dur   time.Duration
}

// Scratch is the reusable working memory of one shortest-path computation:
// the hold-end, visited and per-machine mark labels plus the priority-queue
// backing array. None of it survives into the returned Plan, so a Scratch
// can back any number of sequential Compute calls without reallocating. A
// Scratch must not be shared between concurrent computations.
type Scratch struct {
	holdEnd []simtime.Instant
	done    []bool
	// mark[v] is set, during the relaxation walk, once v is in CapFailed
	// and, during a trim, once v is kept. A forest is trimmed only when no
	// check failed, so both uses start from clear marks.
	mark []bool
	// want[v] marks, in a cut forest, a request machine of the item not
	// yet settled; the walk stops when the last of them is.
	want  []bool
	pq    []heapEntry
	stats ScratchStats
}

// NewScratch returns an empty Scratch; its buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// ScratchStats counts what a Scratch's lifetime of computations cost: how
// many Compute calls ran, how many of those had to grow a label buffer
// (the complement is the allocation-free reuse hits the planner's
// steady-state depends on), the high-water mark of the priority queue
// (the forest computation's only dynamic working set), and the walk's own
// work: machines settled and links examined. The planner aggregates these
// into the obs registry after a run.
type ScratchStats struct {
	// Computes is the number of Compute calls served.
	Computes int
	// Grows is how many of those calls reallocated a label buffer; the
	// first call on a fresh Scratch always grows.
	Grows int
	// HeapHighWater is the largest priority-queue length ever reached.
	HeapHighWater int
	// Pops is the number of machines settled: queue entries popped at
	// their final label (stale entries are not counted).
	Pops int
	// Relaxations is the number of virtual links the relax loop examined
	// out of settled machines.
	Relaxations int
}

// ReuseHits is Computes minus Grows: calls served entirely from recycled
// buffers.
func (s ScratchStats) ReuseHits() int { return s.Computes - s.Grows }

// Stats returns the Scratch's lifetime counters.
func (s *Scratch) Stats() ScratchStats { return s.stats }

// Compute runs the adapted Dijkstra for one item against the current state.
// The state is only read. It is shorthand for NewScratch().Compute with no
// recycled plan; hot paths should hold a Scratch and recycle Plans instead.
func Compute(st *state.State, item model.ItemID) *Plan {
	var s Scratch
	return s.Compute(st, item, nil)
}

// Compute runs the adapted Dijkstra for one item against the current state,
// drawing working memory from the Scratch, and labels every machine the
// item can reach at any instant. The state is only read. If reuse is
// non-nil its slices are recycled for the returned Plan (which may or may
// not be reuse itself); the caller must no longer use reuse afterwards.
func (s *Scratch) Compute(st *state.State, item model.ItemID, reuse *Plan) *Plan {
	return s.compute(st, item, reuse, fullForest)
}

// ComputeTrimmed is Compute cut down to the part of the forest a heuristic
// reads: the paths to request machines reached by their deadlines. A
// request's Sat is 0 once its arrival is past its deadline (§4.8), so with L
// the item's latest deadline:
//
//   - the forest is labelled only up to L. An arrival after L, and every
//     arrival that could descend from it, serves no request; it is kept
//     only as a dominance label on its machine (so later arrivals there are
//     pruned as before), never pushed, never given a capacity check, and
//     reads Never in the result. Every label at or before L is exactly
//     Compute's, because arrivals only grow along a path;
//   - the walk stops once the last of the item's request machines is
//     settled, before relaxing out of it. Every machine settled later, and
//     every relaxation out of one, arrives no earlier than that label, so
//     it cannot change the path to any request machine. A machine the walk
//     did not settle reads Never;
//   - when no capacity check failed (CapBlocked false), every machine off
//     the paths to the request machines reached by their own deadlines is
//     cleared as well. A cap-blocked forest keeps every machine it settled,
//     so that the planner's conflict check sees each hop whose delay could
//     turn a failed check around.
//
// On the machines it keeps the forest equals Compute's, hop for hop, and
// CapBlocked reports exactly whether a check failed at an arrival ≤ L while
// relaxing out of a machine settled before the last request machine. A
// check the stop leaves out cannot matter, at this floor or a later one:
// its arrival is no earlier than every request machine's label, and so is
// every arrival that descends from it, while the checks before the stop
// are all recorded.
func (s *Scratch) ComputeTrimmed(st *state.State, item model.ItemID, reuse *Plan) *Plan {
	return s.compute(st, item, reuse, trimmedForest)
}

// ComputeBound runs the relaxation under the most permissive storage gate
// any useful arrival could ever face, and returns an optimistic forest: a
// lower bound on every arrival the item can still achieve in time at its
// request machines, in this state and in every state the incremental
// planner can move it to. It is cut at L (the item's latest request
// deadline) and stopped at its last request machine, exactly like
// ComputeTrimmed (but not trimmed), and its gate at machine v tests
// CanReserve over [L, HoldEnd(item, v)) — passing outright when that
// interval is empty — so it never sets CapBlocked. Paths are not meant to
// be committed.
//
// The claim: let a real forest be computed later, after any number of
// commits (of other items) and floor advances, and let a' be its arrival at
// some machine with a' ≤ L. Then the arrival of the uncut bound walk there
// is ≤ a', and the bound forest keeps that arrival at every request machine
// (each is settled before the walk stops) and at every other machine it
// keeps. Arrivals after L serve no request, so an item none of whose open
// requests the bound reaches by its deadline can never be scheduled again.
// Why it holds:
//
//   - every gate other than storage is monotone: on the incremental path
//     free link time only shrinks and the floor only rises, so a slot a
//     later computation finds is free now, and a query from an earlier ready
//     time returns it or something earlier (the EarliestHopStart argument);
//   - the bound's storage gate is the weakest a useful arrival can meet: a
//     real arrival a' ≤ L reserves [a', E) ⊇ [L, E), and free storage only
//     shrinks, so if the real check passes then, [L, E) passes now;
//   - so by induction along the real path from a holder, each hop relaxes
//     here from a ready time no later than the real one, through every gate,
//     to an arrival no later than the real one (for arrivals ≤ L the bound's
//     gate does not depend on the arrival, so label-setting stays exact);
//   - the holders the induction starts from do not move: an item with no
//     candidate commits nothing.
//
// Whatever rewrites the past instead of extending it (a dropped or rolled
// back history, a link failure) is outside the claim; the planner is rebuilt
// then and re-derives retirement from scratch.
func (s *Scratch) ComputeBound(st *state.State, item model.ItemID, reuse *Plan) *Plan {
	return s.compute(st, item, reuse, boundForest)
}

// forestKind selects what the one relaxation loop computes.
type forestKind uint8

const (
	// fullForest: every machine to any instant, the exact storage gate
	// (Compute).
	fullForest forestKind = iota
	// trimmedForest: cut at the latest deadline, the exact storage gate,
	// trimmed unless cap-blocked (ComputeTrimmed).
	trimmedForest
	// boundForest: cut at the latest deadline, the optimistic storage gate
	// (ComputeBound).
	boundForest
)

// compute is the relaxation loop behind Compute, ComputeTrimmed and
// ComputeBound.
func (s *Scratch) compute(st *state.State, item model.ItemID, reuse *Plan, kind forestKind) *Plan {
	sc := st.Scenario()
	net := sc.Network
	m := net.NumMachines()
	it := sc.Item(item)
	size := it.SizeBytes
	latest := it.LatestDeadline()
	cut := simtime.Never
	if kind != fullForest {
		cut = latest
	}

	s.stats.Computes++
	if cap(s.holdEnd) < m {
		s.stats.Grows++
	}

	p := reuse
	if p == nil {
		p = &Plan{}
	}
	p.Item = item
	p.Arrival = growSlice(p.Arrival, m)
	p.Pred = growSlice(p.Pred, m)
	p.Via = growSlice(p.Via, m)
	p.Start = growSlice(p.Start, m)
	p.Dur = growSlice(p.Dur, m)
	p.CapFailed = p.CapFailed[:0]
	p.Kept = growSlice(p.Kept, m)[:0]

	// holdEnd[u] is when u's copy (existing or planned) disappears; the
	// latest instant a transfer out of u may still be in flight.
	s.holdEnd = growSlice(s.holdEnd, m)
	s.done = growSlice(s.done, m)
	s.mark = growSlice(s.mark, m)
	s.want = growSlice(s.want, m)
	// The queue lives in a local for the whole walk: storing its header
	// back into the Scratch on every push and pop would cost a GC write
	// barrier each time while a collection is marking.
	pq := s.pq[:0]
	holdEnd, done, mark, want := s.holdEnd, s.done, s.mark, s.want
	var dm durMemo
	// The work counters live in locals for the walk and are summed into
	// the stats at return.
	pops, relaxations := 0, 0

	for u := range p.Arrival {
		p.Arrival[u] = simtime.Never
		p.Pred[u] = NoMachine
		p.Via[u] = NoLink
		done[u] = false
		mark[u] = false
		want[u] = false
	}
	// wanted counts the distinct request machines a cut forest has still to
	// settle; it stays 0, and want all false, in a full forest.
	wanted := 0
	if kind != fullForest {
		for k := range it.Requests {
			if v := it.Requests[k].Machine; !want[v] {
				want[v] = true
				wanted++
			}
		}
	}
	for _, h := range st.Holders(item) {
		p.Arrival[h.Machine] = h.Avail
		holdEnd[h.Machine] = h.End
		pq = s.push(pq, heapEntry{at: h.Avail, machine: h.Machine})
	}

	for len(pq) > 0 {
		var e heapEntry
		e, pq = pop(pq)
		u := e.machine
		if done[u] || e.at != p.Arrival[u] {
			continue // stale entry
		}
		done[u] = true
		pops++
		if want[u] {
			// Every later pop, and every relaxation out of it, arrives no
			// earlier than this label: it can change no kept path.
			if wanted--; wanted == 0 {
				break
			}
		}
		// A copy may predate the planning floor, but new transfers cannot.
		ready := simtime.MaxInstant(p.Arrival[u], st.Floor())
		endU := holdEnd[u]
		groups := st.PhysGroups(u)
		for gi := range groups {
			g := &groups[gi]
			v := g.To
			// Roots are exactly the machines holding the item (Pred stays
			// NoMachine and this guard keeps it that way), so the root test
			// is st.Holds answered from the labels — two array reads on the
			// innermost loop instead of a holder-list lookup.
			if done[v] || (p.Arrival[v] != simtime.Never && p.Pred[v] == NoMachine) {
				continue
			}
			// A window that closed by ready fits no transfer.
			for _, id := range g.Links[g.FirstOpen(ready):] {
				relaxations++
				l := net.Link(id)
				// Windows are sorted by start: once a window opens at or
				// after u's copy disappears or after v's current best
				// arrival, no later window of this physical link helps.
				if l.Window.Start >= endU || l.Window.Start >= p.Arrival[v] {
					break
				}
				d := dm.transferDuration(l, size)
				// A slot starts no earlier than ready or the window does:
				// when even that start cannot beat v's label, the slot
				// query cannot either.
				if simtime.MaxInstant(ready, l.Window.Start).Add(d) >= p.Arrival[v] {
					continue
				}
				slot, ok := st.EarliestTransferSlot(id, ready, d)
				if !ok {
					continue
				}
				arrival := slot.Add(d)
				if arrival > endU { // sending copy garbage-collected mid-flight
					continue
				}
				if arrival >= p.Arrival[v] {
					continue
				}
				if arrival > cut {
					// Past every deadline: a dominance label only. Pred
					// keeps v from reading as a root; v is never popped, so
					// the clean-up below clears it.
					p.Arrival[v] = arrival
					p.Pred[v] = u
					continue
				}
				hold := st.HoldInterval(item, v, arrival)
				if kind == boundForest {
					// arrival ≤ L here, so the weakest useful gate starts at L.
					gate := simtime.Interval{Start: latest, End: hold.End}
					if !gate.IsEmpty() && !st.Capacity(v).CanReserve(size, gate) {
						continue
					}
				} else if !st.Capacity(v).CanReserve(size, hold) {
					if !mark[v] {
						mark[v] = true
						p.CapFailed = append(p.CapFailed, v)
					}
					continue
				}
				p.Arrival[v] = arrival
				p.Pred[v] = u
				p.Via[v] = id
				p.Start[v] = slot
				p.Dur[v] = d
				holdEnd[v] = hold.End
				pq = s.push(pq, heapEntry{at: arrival, machine: v})
			}
		}
	}
	s.pq = pq
	s.stats.Pops += pops
	s.stats.Relaxations += relaxations
	p.CapBlocked = len(p.CapFailed) > 0

	// keep[v] says v survives: every popped machine, or in a trim only the
	// ones on the paths to request machines reached by their deadlines
	// (each such arrival is ≤ L, so the whole path was popped).
	keep := done
	if kind == trimmedForest && !p.CapBlocked {
		for k := range it.Requests {
			rq := &it.Requests[k]
			if p.Arrival[rq.Machine].After(rq.Deadline) {
				continue
			}
			for v := rq.Machine; !mark[v]; v = p.Pred[v] {
				mark[v] = true
				if p.Pred[v] == NoMachine {
					break
				}
			}
		}
		keep = mark
	}
	for v, k := range keep {
		if !k {
			p.Arrival[v] = simtime.Never
			p.Pred[v] = NoMachine
			p.Via[v] = NoLink
		} else if p.Via[v] != NoLink {
			p.Kept = append(p.Kept, model.MachineID(v))
		}
	}
	return p
}

// durMemo caches the last TransferDuration evaluation for one item's
// computation. Links within a physical group (and usually across a whole
// scenario) repeat the same (bandwidth, latency) pair, and the duration of
// a fixed-size item over such a pair is a pure function, so the innermost
// relax loop can skip the div/round sequence almost every time. A zero
// memo is ready to use: no real link has zero bandwidth (validation
// rejects it), so the first call always misses.
type durMemo struct {
	bps int64
	lat time.Duration
	dur time.Duration
}

func (m *durMemo) transferDuration(l *model.VirtualLink, size int64) time.Duration {
	if l.BandwidthBPS != m.bps || l.Latency != m.lat {
		m.bps, m.lat = l.BandwidthBPS, l.Latency
		m.dur = l.TransferDuration(size)
	}
	return m.dur
}

// growSlice returns s resized to n elements, reusing its backing array when
// it is large enough. Contents are unspecified; callers reinitialize.
func growSlice[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// Reachable reports whether a copy can reach machine m in the current
// state (holders are trivially reachable).
func (p *Plan) Reachable(m model.MachineID) bool { return p.Arrival[m] != simtime.Never }

// EarliestHopStart returns the earliest start instant of any planned hop in
// the forest, or simtime.Forever when the forest plans no hop at all. A
// non-CapBlocked forest computed under planning floor f stays exactly the
// forest a fresh computation would produce for any floor f' in
// (f, EarliestHopStart]: every relaxation clamps its ready time to the
// floor, raising the clamp below the earliest slot actually found changes
// no successful label (slot queries are monotone in the ready time and the
// free sets are unchanged), and every failed or dominated relaxation fails
// the same monotone gate again at the higher floor — except a failed
// capacity check, which CapBlocked flags. A trimmed forest counts only the
// hops it keeps: a machine it cleared reaches no request in time, and a
// later floor only delays it further. The incremental planner in
// internal/core uses this pair to decide which cached forests survive a
// floor advance.
func (p *Plan) EarliestHopStart() simtime.Instant {
	earliest := simtime.Forever
	for _, v := range p.Kept {
		earliest = min(earliest, p.Start[v])
	}
	return earliest
}

// PathTo returns the hops from the root holder to machine m in planned
// order. It returns (nil, true) when m already holds the item and
// (nil, false) when m is unreachable.
func (p *Plan) PathTo(m model.MachineID) ([]Hop, bool) {
	hops, ok := p.AppendPathTo(nil, m)
	if len(hops) == 0 {
		return nil, ok
	}
	return hops, ok
}

// AppendPathTo appends the hops from the root holder to machine m onto dst
// in planned order and returns the extended slice. ok is false when m is
// unreachable; a machine already holding the item appends nothing. Hot
// paths keep a reusable dst so path extraction never allocates.
func (p *Plan) AppendPathTo(dst []Hop, m model.MachineID) (_ []Hop, ok bool) {
	if !p.Reachable(m) {
		return dst, false
	}
	n := 0
	for v := m; p.Pred[v] != NoMachine; v = p.Pred[v] {
		n++
	}
	base := len(dst)
	if cap(dst)-base < n {
		grown := make([]Hop, base, base+n)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+n]
	i := base + n
	for v := m; p.Pred[v] != NoMachine; v = p.Pred[v] {
		i--
		dst[i] = Hop{
			Link:  p.Via[v],
			From:  p.Pred[v],
			To:    v,
			Start: p.Start[v],
			Dur:   p.Dur[v],
		}
	}
	return dst, true
}

// FirstHopTo returns the first transfer on the planned path to machine m:
// the hop out of the root holder. ok is false when m is unreachable or
// already holds the item. It walks the predecessor chain directly and never
// allocates.
func (p *Plan) FirstHopTo(m model.MachineID) (Hop, bool) {
	if !p.Reachable(m) || p.Pred[m] == NoMachine {
		return Hop{}, false
	}
	v := m
	for p.Pred[p.Pred[v]] != NoMachine {
		v = p.Pred[v]
	}
	return Hop{
		Link:  p.Via[v],
		From:  p.Pred[v],
		To:    v,
		Start: p.Start[v],
		Dur:   p.Dur[v],
	}, true
}

// heapEntry is one tentative label in the priority queue. Entries are
// totally ordered — a machine is re-pushed only when its arrival strictly
// improves, so (at, machine) pairs are unique — which makes the pop order
// (and therefore the forest) independent of the heap implementation.
type heapEntry struct {
	at      simtime.Instant
	machine model.MachineID
}

func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.machine < b.machine
}

// push and pop implement a binary min-heap directly on the queue's backing
// array: container/heap would box every entry into an interface,
// allocating once per push on the hottest loop in the scheduler. push also
// keeps the Scratch's heap high-water mark.
func (s *Scratch) push(h []heapEntry, e heapEntry) []heapEntry {
	h = append(h, e)
	if len(h) > s.stats.HeapHighWater {
		s.stats.HeapHighWater = len(h)
	}
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

func pop(h []heapEntry) (heapEntry, []heapEntry) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && entryLess(h[r], h[l]) {
			least = r
		}
		if !entryLess(h[least], h[i]) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return top, h
}
