package dijkstra

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"datastaging/internal/gen"
	"datastaging/internal/model"
	"datastaging/internal/simtime"
	"datastaging/internal/state"
	"datastaging/internal/testnet"
)

// tightParams is quickParams with storage tight enough that capacity checks
// fail, so both cap-blocked and trimmed forests occur.
func tightParams() gen.Params {
	p := quickParams()
	p.CapacityBytes = gen.Int64Range{Min: 1 << 20, Max: 64 << 20}
	return p
}

// cutPops says, from the full forest's labels alone, which machines a cut
// forest (ComputeTrimmed, ComputeBound) settles and which it relaxes out
// of. The cut walk settles every root and every machine reached by the
// item's latest deadline L, in (arrival, machine) order, and stops once
// the last of the item's request machines is settled, without relaxing
// out of it; when some request machine is neither a root nor reached by
// L it never stops.
func cutPops(full *Plan, it *model.Item) (settled, relaxed func(model.MachineID) bool) {
	latest := it.LatestDeadline()
	reached := func(v model.MachineID) bool {
		return full.IsRoot(v) || (full.Reachable(v) && !full.Arrival[v].After(latest))
	}
	last, stops := heapEntry{}, true
	for _, rq := range it.Requests {
		if !reached(rq.Machine) {
			stops = false
			break
		}
		if e := (heapEntry{at: full.Arrival[rq.Machine], machine: rq.Machine}); entryLess(last, e) {
			last = e
		}
	}
	settled = func(v model.MachineID) bool {
		return reached(v) && (!stops || !entryLess(last, heapEntry{at: full.Arrival[v], machine: v}))
	}
	relaxed = func(v model.MachineID) bool {
		return reached(v) && (!stops || entryLess(heapEntry{at: full.Arrival[v], machine: v}, last))
	}
	return settled, relaxed
}

// capWitnesses replays, outside the kernel, every relaxation out of every
// machine a cut forest relaxes out of (see cutPops), and returns the
// machines where a capacity check at an arrival ≤ L fails (mayFail) and
// the subset where such an arrival also beats the final label, which the
// kernel must have checked (mustFail). A check the kernel ran and failed
// is in mayFail; a relaxation in mustFail that passed would contradict the
// full forest's label, reported as ok false.
func capWitnesses(st *state.State, item model.ItemID, full *Plan) (mayFail, mustFail map[model.MachineID]bool, ok bool) {
	sc := st.Scenario()
	it := sc.Item(item)
	latest := it.LatestDeadline()
	_, relaxed := cutPops(full, it)
	mayFail, mustFail = map[model.MachineID]bool{}, map[model.MachineID]bool{}
	for m, at := range full.Arrival {
		u := model.MachineID(m)
		if !relaxed(u) {
			continue
		}
		endU := st.HoldEnd(item, u)
		if h, held := st.Holder(item, u); held {
			endU = h.End
		}
		ready := simtime.MaxInstant(at, st.Floor())
		for _, id := range sc.Network.Outgoing(u) {
			l := sc.Network.Link(id)
			v := l.To
			if st.Holds(item, v) {
				continue
			}
			d := l.TransferDuration(it.SizeBytes)
			slot, fits := st.EarliestTransferSlot(id, ready, d)
			if !fits {
				continue
			}
			a := slot.Add(d)
			if a > endU || a.After(latest) {
				continue
			}
			if st.Capacity(v).CanReserve(it.SizeBytes, st.HoldInterval(item, v, a)) {
				if a < full.Arrival[v] {
					return nil, nil, false
				}
				continue
			}
			mayFail[v] = true
			if a < full.Arrival[v] {
				mustFail[v] = true
			}
		}
	}
	return mayFail, mustFail, true
}

// plannedHops lists the machines with a planned hop into them, found by
// scanning every machine: what Plan.Kept must say.
func plannedHops(p *Plan) []model.MachineID {
	var out []model.MachineID
	for v, via := range p.Via {
		if via != NoLink {
			out = append(out, model.MachineID(v))
		}
	}
	return out
}

// TestQuickTrimmedForestMatchesFull pins ComputeTrimmed against Compute on
// random committed states: on every machine it keeps, the trimmed forest is
// the full forest hop for hop; it keeps every request machine reached by
// its deadline, with the full forest's arrival and path; a forest that is
// not cap-blocked keeps nothing else but the paths to them, and a
// cap-blocked one keeps every machine its walk settled (see cutPops: those
// reached by L, up to the last request machine); CapBlocked is true
// exactly when a capacity check failed while relaxing out of a machine
// settled before the last request machine, with CapFailed naming each such
// machine once; and both forests' Kept lists are exactly their planned
// hops' machines, ascending. checkStopped holds the same forest against
// the uncut walk, exactly.
func TestQuickTrimmedForestMatchesFull(t *testing.T) {
	params := tightParams()
	var s Scratch
	var trimmed *Plan
	var forests, capBlocked, cleared, mustFails, stopped int

	property := func(seed int64) bool {
		sc := testnet.Generate(params, seed%100000)
		rng := rand.New(rand.NewSource(seed))
		st := state.New(sc)
		commitRandomPaths(t, st, rng, len(sc.Items)/2, map[model.ItemID]bool{})
		if rng.Intn(2) == 0 {
			st.SetFloor(simtime.At(time.Duration(rng.Int63n(int64(45 * time.Minute)))))
		}
		for i := range sc.Items {
			item := model.ItemID(i)
			it := sc.Item(item)
			latest := it.LatestDeadline()
			full := Compute(st, item)
			trimmed = s.ComputeTrimmed(st, item, trimmed)
			forests++
			fail := func(format string, args ...any) bool {
				t.Logf("seed %d item %d: "+format, append([]any{seed, i}, args...)...)
				return false
			}
			if err := checkStopped(st, item, trimmedForest, trimmed); err != nil {
				return fail("against the uncut walk: %v", err)
			}
			if err := checkFull(st, item, full); err != nil {
				return fail("full forest against the uncut walk: %v", err)
			}
			settled, _ := cutPops(full, it)
			for m := range full.Arrival {
				if v := model.MachineID(m); !full.Arrival[v].After(latest) && !settled(v) {
					stopped++
					break
				}
			}

			// The paths the trim must keep: every request machine reached
			// by its deadline, and its predecessors.
			onPath := make([]bool, len(full.Arrival))
			for _, rq := range it.Requests {
				if full.Arrival[rq.Machine].After(rq.Deadline) {
					continue
				}
				if !trimmed.Reachable(rq.Machine) {
					return fail("request machine %d reached at %v by deadline %v was not kept",
						rq.Machine, full.Arrival[rq.Machine], rq.Deadline)
				}
				got, _ := trimmed.PathTo(rq.Machine)
				want, _ := full.PathTo(rq.Machine)
				if trimmed.Arrival[rq.Machine] != full.Arrival[rq.Machine] || !slices.Equal(got, want) {
					return fail("request machine %d: arrival %v path %v, full forest %v %v",
						rq.Machine, trimmed.Arrival[rq.Machine], got, full.Arrival[rq.Machine], want)
				}
				for v := rq.Machine; !onPath[v]; v = full.Pred[v] {
					onPath[v] = true
					if full.Pred[v] == NoMachine {
						break
					}
				}
			}
			for m := range full.Arrival {
				v := model.MachineID(m)
				if !trimmed.Reachable(v) {
					if onPath[v] || (trimmed.CapBlocked && settled(v)) {
						return fail("machine %d reached at %v (L %v) was cleared (cap-blocked %v)",
							v, full.Arrival[v], latest, trimmed.CapBlocked)
					}
					if full.Reachable(v) {
						cleared++
					}
					if trimmed.Pred[v] != NoMachine || trimmed.Via[v] != NoLink {
						return fail("cleared machine %d keeps pred %d via %d", v, trimmed.Pred[v], trimmed.Via[v])
					}
					continue
				}
				if trimmed.Arrival[v] != full.Arrival[v] || trimmed.Pred[v] != full.Pred[v] || trimmed.Via[v] != full.Via[v] {
					return fail("kept machine %d: (%v, %d, %d), full forest (%v, %d, %d)", v,
						trimmed.Arrival[v], trimmed.Pred[v], trimmed.Via[v], full.Arrival[v], full.Pred[v], full.Via[v])
				}
				if full.Via[v] != NoLink && (trimmed.Start[v] != full.Start[v] || trimmed.Dur[v] != full.Dur[v]) {
					return fail("kept machine %d: hop timing differs", v)
				}
				if !settled(v) {
					return fail("kept machine %d at %v (L %v) was not settled", v, trimmed.Arrival[v], latest)
				}
				if !trimmed.CapBlocked && !onPath[v] {
					return fail("machine %d is on no path to a request reached in time but was kept", v)
				}
			}

			for _, pl := range []*Plan{full, trimmed} {
				if want := plannedHops(pl); !slices.Equal(pl.Kept, want) {
					return fail("Kept %v, want the planned hops' machines %v", pl.Kept, want)
				}
			}

			mayFail, mustFail, ok := capWitnesses(st, item, full)
			if !ok {
				return fail("a relaxation beats the full forest's label through every gate")
			}
			if trimmed.CapBlocked != (len(trimmed.CapFailed) > 0) {
				return fail("CapBlocked %v with CapFailed %v", trimmed.CapBlocked, trimmed.CapFailed)
			}
			listed := map[model.MachineID]bool{}
			for _, v := range trimmed.CapFailed {
				if listed[v] || !mayFail[v] {
					return fail("CapFailed %v: machine %d repeated or has no failing check before the stop", trimmed.CapFailed, v)
				}
				listed[v] = true
			}
			for v := range mustFail {
				if !listed[v] {
					return fail("a check at machine %d must have failed before the stop but CapFailed is %v", v, trimmed.CapFailed)
				}
			}
			mustFails += len(mustFail)
			if trimmed.CapBlocked {
				capBlocked++
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
	if capBlocked == 0 || capBlocked == forests || cleared == 0 || mustFails == 0 || stopped == 0 {
		t.Errorf("vacuous: %d forests, %d cap-blocked, %d reached machines cleared, %d checks that had to fail, %d walks stopped short of L",
			forests, capBlocked, cleared, mustFails, stopped)
	}
}

// FuzzStoppedForestMatchesFull holds ComputeTrimmed and ComputeBound to
// checkStopped's contract, and Compute to checkFull's, against the uncut
// walk, for every item of a fuzzer-chosen small scenario after random
// commits and an optional floor advance, with or without tight storage and
// port serialization. It also
// holds both forests to the full forest at the request machines: the
// trimmed forest reaches each one the full forest reaches by its deadline
// at the same instant, and the bound is never later there.
func FuzzStoppedForestMatchesFull(f *testing.F) {
	f.Add(int64(474893212811123542), uint8(3), uint16(0), true, false)
	f.Add(int64(5577006791947779410), uint8(5), uint16(1200), true, true)
	f.Add(int64(7), uint8(0), uint16(2700), false, false)
	f.Fuzz(func(t *testing.T, seed int64, commits uint8, floorSec uint16, tight, serial bool) {
		params := quickParams()
		if tight {
			params = tightParams()
		}
		sc := testnet.Generate(params, seed%100000)
		sc.SerialTransfers = serial
		st := state.New(sc)
		rng := rand.New(rand.NewSource(seed))
		commitRandomPaths(t, st, rng, int(commits)%(len(sc.Items)+1), map[model.ItemID]bool{})
		st.SetFloor(simtime.At(time.Duration(floorSec) * time.Second))
		var s Scratch
		for i := range sc.Items {
			item := model.ItemID(i)
			full := Compute(st, item)
			if err := checkFull(st, item, full); err != nil {
				t.Fatalf("item %d, full forest: %v", i, err)
			}
			trimmed := s.ComputeTrimmed(st, item, nil)
			bound := s.ComputeBound(st, item, nil)
			for kind, pl := range map[forestKind]*Plan{trimmedForest: trimmed, boundForest: bound} {
				if err := checkStopped(st, item, kind, pl); err != nil {
					t.Fatalf("item %d, forest kind %d: %v", i, kind, err)
				}
			}
			for _, rq := range sc.Item(item).Requests {
				v, at := rq.Machine, full.Arrival[rq.Machine]
				if at.After(rq.Deadline) {
					continue
				}
				if trimmed.Arrival[v] != at {
					t.Fatalf("item %d request machine %d: trimmed arrival %v, full forest %v", i, v, trimmed.Arrival[v], at)
				}
				if bound.Arrival[v].After(at) {
					t.Fatalf("item %d request machine %d: bound %v after exact %v", i, v, bound.Arrival[v], at)
				}
			}
		}
	})
}

// TestComputeTrimmedZeroAllocs: once a recycled plan has seen the largest
// forest, CapFailed included, recomputing every item allocates nothing.
func TestComputeTrimmedZeroAllocs(t *testing.T) {
	sc := testnet.Generate(tightParams(), 5)
	st := state.New(sc)
	commitRandomPaths(t, st, rand.New(rand.NewSource(5)), len(sc.Items)/2, map[model.ItemID]bool{})
	var s Scratch
	var pl *Plan
	blocked := 0
	for i := range sc.Items {
		pl = s.ComputeTrimmed(st, model.ItemID(i), pl)
		if pl.CapBlocked {
			blocked++
		}
	}
	if blocked == 0 {
		t.Fatal("no cap-blocked forest: CapFailed is not exercised")
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := range sc.Items {
			pl = s.ComputeTrimmed(st, model.ItemID(i), pl)
		}
	})
	if allocs != 0 {
		t.Errorf("recycled ComputeTrimmed allocated %.1f times per sweep, want 0", allocs)
	}
}
