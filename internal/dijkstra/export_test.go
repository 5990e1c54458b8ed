package dijkstra

import (
	"fmt"
	"slices"
	"time"

	"datastaging/internal/model"
	"datastaging/internal/simtime"
	"datastaging/internal/state"
)

// IsRoot reports whether machine m holds the item in the planned forest.
func (p *Plan) IsRoot(m model.MachineID) bool {
	return p.Arrival[m] != simtime.Never && p.Pred[m] == NoMachine
}

// Add accumulates other into s (high-water marks take the max).
func (s *ScratchStats) Add(other ScratchStats) {
	s.Computes += other.Computes
	s.Grows += other.Grows
	s.HeapHighWater = max(s.HeapHighWater, other.HeapHighWater)
	s.Pops += other.Pops
	s.Relaxations += other.Relaxations
}

// uncutWalk is what the relaxation walk does without its two work cuts: it
// examines every link of every physical group, closed windows included, and
// runs until the queue is empty instead of stopping once the item's last
// request machine is settled. It is the oracle the forests are pinned
// against (checkStopped, checkFull): Plan holds its labels before any
// clearing, popped the settled machines in pop order, and fails every
// failed capacity check in the order it ran.
type uncutWalk struct {
	Plan
	popped []model.MachineID
	fails  []capFail
}

// capFail is one failed capacity check: the machine checked, and the pop
// rank (index into uncutWalk.popped) of the machine relaxed from.
type capFail struct {
	at   model.MachineID
	from int
}

// walkUncut runs the uncut relaxation walk for a forest kind.
func walkUncut(st *state.State, item model.ItemID, kind forestKind) *uncutWalk {
	sc := st.Scenario()
	net := sc.Network
	m := net.NumMachines()
	it := sc.Item(item)
	size := it.SizeBytes
	latest := it.LatestDeadline()
	cut := latest
	if kind == fullForest {
		cut = simtime.Never
	}

	w := &uncutWalk{Plan: Plan{
		Item:    item,
		Arrival: make([]simtime.Instant, m),
		Pred:    make([]model.MachineID, m),
		Via:     make([]model.LinkID, m),
		Start:   make([]simtime.Instant, m),
		Dur:     make([]time.Duration, m),
	}}
	p := &w.Plan
	holdEnd := make([]simtime.Instant, m)
	done := make([]bool, m)
	var s Scratch
	var pq []heapEntry
	for u := range p.Arrival {
		p.Arrival[u] = simtime.Never
		p.Pred[u] = NoMachine
		p.Via[u] = NoLink
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
			continue
		}
		done[u] = true
		rank := len(w.popped)
		w.popped = append(w.popped, u)
		ready := simtime.MaxInstant(p.Arrival[u], st.Floor())
		endU := holdEnd[u]
		for _, g := range st.PhysGroups(u) {
			v := g.To
			if done[v] || (p.Arrival[v] != simtime.Never && p.Pred[v] == NoMachine) {
				continue
			}
			for _, id := range g.Links {
				l := net.Link(id)
				if l.Window.Start >= endU || l.Window.Start >= p.Arrival[v] {
					break
				}
				d := l.TransferDuration(size)
				slot, ok := st.EarliestTransferSlot(id, ready, d)
				if !ok {
					continue
				}
				arrival := slot.Add(d)
				if arrival > endU || arrival >= p.Arrival[v] {
					continue
				}
				if arrival > cut {
					p.Arrival[v] = arrival
					p.Pred[v] = u
					continue
				}
				hold := st.HoldInterval(item, v, arrival)
				if kind == boundForest {
					gate := simtime.Interval{Start: latest, End: hold.End}
					if !gate.IsEmpty() && !st.Capacity(v).CanReserve(size, gate) {
						continue
					}
				} else if !st.Capacity(v).CanReserve(size, hold) {
					w.fails = append(w.fails, capFail{at: v, from: rank})
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
	return w
}

// stopRank returns the pop rank at which a stopped walk leaves its queue
// loop, the rank of the item's last request machine to be settled, and
// whether it stops at all: it does not when some request machine is never
// settled, and then it settles everything the uncut walk does.
func (w *uncutWalk) stopRank(it *model.Item) (int, bool) {
	rank := make(map[model.MachineID]int, len(w.popped))
	for r, u := range w.popped {
		rank[u] = r
	}
	last := -1
	for _, rq := range it.Requests {
		r, ok := rank[rq.Machine]
		if !ok {
			return len(w.popped) - 1, false
		}
		last = max(last, r)
	}
	return last, true
}

// checkStopped holds a cut forest of the given kind, as ComputeTrimmed or
// ComputeBound returned it, against the uncut walk in the same state:
//
//   - it settles exactly the uncut walk's pops up to and including the
//     item's last request machine (all of them when some request machine
//     is never settled), and relaxes out of every one of them but that
//     last request machine;
//   - CapFailed lists, once each and in check order, exactly the machines
//     of the uncut walk's failed capacity checks made while relaxing out of
//     those machines, so CapBlocked holds exactly when a check failed
//     before the last request pop;
//   - a trimmed forest that is not cap-blocked keeps exactly the paths to
//     the request machines reached by their deadlines, and any other cut
//     forest keeps exactly the settled machines;
//   - every kept machine, each request machine among them, matches the
//     uncut walk hop for hop, every other machine reads Never with no
//     predecessor, and Kept lists the kept machines with a planned hop.
func checkStopped(st *state.State, item model.ItemID, kind forestKind, got *Plan) error {
	it := st.Scenario().Item(item)
	w := walkUncut(st, item, kind)
	last, stops := w.stopRank(it)
	relaxed := last + 1
	if stops {
		relaxed = last
	}
	m := len(w.Arrival)

	var capFailed []model.MachineID
	failed := make([]bool, m)
	for _, f := range w.fails {
		if f.from < relaxed && !failed[f.at] {
			failed[f.at] = true
			capFailed = append(capFailed, f.at)
		}
	}
	if !slices.Equal(got.CapFailed, capFailed) || got.CapBlocked != (len(capFailed) > 0) {
		return fmt.Errorf("CapFailed %v (CapBlocked %v), want %v from the checks before pop rank %d",
			got.CapFailed, got.CapBlocked, capFailed, relaxed)
	}

	keep := make([]bool, m)
	if kind == trimmedForest && len(capFailed) == 0 {
		for _, rq := range it.Requests {
			if w.Arrival[rq.Machine].After(rq.Deadline) {
				continue
			}
			for v := rq.Machine; !keep[v]; v = w.Pred[v] {
				keep[v] = true
				if w.Pred[v] == NoMachine {
					break
				}
			}
		}
	} else {
		for _, u := range w.popped[:last+1] {
			keep[u] = true
		}
	}
	var kept []model.MachineID
	for v := range keep {
		if !keep[v] {
			if got.Arrival[v] != simtime.Never || got.Pred[v] != NoMachine || got.Via[v] != NoLink {
				return fmt.Errorf("machine %d: (%v, %d, %d), want cleared (settled %v)",
					v, got.Arrival[v], got.Pred[v], got.Via[v], slices.Contains(w.popped[:last+1], model.MachineID(v)))
			}
			continue
		}
		if got.Arrival[v] != w.Arrival[v] || got.Pred[v] != w.Pred[v] || got.Via[v] != w.Via[v] {
			return fmt.Errorf("kept machine %d: (%v, %d, %d), uncut walk (%v, %d, %d)", v,
				got.Arrival[v], got.Pred[v], got.Via[v], w.Arrival[v], w.Pred[v], w.Via[v])
		}
		if w.Via[v] != NoLink {
			if got.Start[v] != w.Start[v] || got.Dur[v] != w.Dur[v] {
				return fmt.Errorf("kept machine %d: hop (%v, %v), uncut walk (%v, %v)",
					v, got.Start[v], got.Dur[v], w.Start[v], w.Dur[v])
			}
			kept = append(kept, model.MachineID(v))
		}
	}
	if !slices.Equal(got.Kept, kept) {
		return fmt.Errorf("Kept %v, want %v", got.Kept, kept)
	}
	return nil
}

// checkFull holds a full forest, as Compute returned it, against the uncut
// walk in the same state: every machine matches hop for hop, so skipping
// closed windows changed no label, and CapFailed lists, once each and in
// check order, the machines of every failed capacity check.
func checkFull(st *state.State, item model.ItemID, got *Plan) error {
	w := walkUncut(st, item, fullForest)
	var capFailed []model.MachineID
	for _, f := range w.fails {
		if !slices.Contains(capFailed, f.at) {
			capFailed = append(capFailed, f.at)
		}
	}
	if !slices.Equal(got.CapFailed, capFailed) || got.CapBlocked != (len(capFailed) > 0) {
		return fmt.Errorf("CapFailed %v (CapBlocked %v), want %v", got.CapFailed, got.CapBlocked, capFailed)
	}
	for v := range w.Arrival {
		if got.Arrival[v] != w.Arrival[v] || got.Pred[v] != w.Pred[v] || got.Via[v] != w.Via[v] {
			return fmt.Errorf("machine %d: (%v, %d, %d), uncut walk (%v, %d, %d)", v,
				got.Arrival[v], got.Pred[v], got.Via[v], w.Arrival[v], w.Pred[v], w.Via[v])
		}
		if w.Via[v] != NoLink && (got.Start[v] != w.Start[v] || got.Dur[v] != w.Dur[v]) {
			return fmt.Errorf("machine %d: hop (%v, %v), uncut walk (%v, %v)",
				v, got.Start[v], got.Dur[v], w.Start[v], w.Dur[v])
		}
	}
	return nil
}
