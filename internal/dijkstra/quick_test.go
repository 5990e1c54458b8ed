package dijkstra

import (
	"testing"
	"testing/quick"

	"datastaging/internal/gen"
	"datastaging/internal/model"
	"datastaging/internal/simtime"
	"datastaging/internal/state"
	"datastaging/internal/testnet"
)

func quickParams() gen.Params {
	p := gen.Default()
	p.Machines = gen.IntRange{Min: 4, Max: 8}
	p.RequestsPerMachine = gen.IntRange{Min: 2, Max: 6}
	return p
}

// TestQuickPlansAreFeasible: for random scenarios, every planned path to a
// reachable machine must commit hop by hop against a fresh state without
// violating any constraint, and the committed arrival must equal the label.
func TestQuickPlansAreFeasible(t *testing.T) {
	property := func(seed int64) bool {
		sc := testnet.Generate(quickParams(), seed%100000)
		// One item at a time against a pristine state, like
		// possible_satisfy: reach every machine the plan claims.
		for i := range sc.Items {
			item := model.ItemID(i)
			st := state.New(sc)
			pl := Compute(st, item)
			for m := 0; m < sc.Network.NumMachines(); m++ {
				mid := model.MachineID(m)
				if !pl.Reachable(mid) || pl.IsRoot(mid) {
					continue
				}
				// Commit the whole path on a dedicated state.
				fresh := state.New(sc)
				hops, ok := pl.PathTo(mid)
				if !ok || len(hops) == 0 {
					t.Logf("seed %d item %d machine %d: reachable but no path", seed, i, m)
					return false
				}
				var last state.Transfer
				for _, h := range hops {
					tr, err := fresh.Commit(item, h.Link, h.Start)
					if err != nil {
						t.Logf("seed %d item %d machine %d: hop %+v rejected: %v", seed, i, m, h, err)
						return false
					}
					last = tr
				}
				if last.Arrival != pl.Arrival[mid] {
					t.Logf("seed %d item %d machine %d: arrival %v != label %v",
						seed, i, m, last.Arrival, pl.Arrival[mid])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestQuickLabelsMonotoneAlongPaths: along any planned path, transfer
// starts are at or after the sender's label and arrivals strictly increase.
func TestQuickLabelsMonotoneAlongPaths(t *testing.T) {
	property := func(seed int64) bool {
		sc := testnet.Generate(quickParams(), seed%100000)
		st := state.New(sc)
		for i := range sc.Items {
			item := model.ItemID(i)
			pl := Compute(st, item)
			for m := 0; m < sc.Network.NumMachines(); m++ {
				mid := model.MachineID(m)
				hops, ok := pl.PathTo(mid)
				if !ok {
					continue
				}
				prev := simtime.Instant(-1)
				for _, h := range hops {
					if h.Start < pl.Arrival[h.From] {
						t.Logf("seed %d: hop starts before sender label", seed)
						return false
					}
					arr := h.Start.Add(h.Dur)
					if arr != pl.Arrival[h.To] {
						t.Logf("seed %d: hop arrival != label", seed)
						return false
					}
					if arr <= prev {
						t.Logf("seed %d: arrivals not increasing along path", seed)
						return false
					}
					prev = arr
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestQuickLabelsLowerBoundSingleLink: a label can never beat the best
// single direct transfer from an original source — a cheap admissibility
// cross-check of the relaxation.
func TestQuickLabelsLowerBoundSingleLink(t *testing.T) {
	property := func(seed int64) bool {
		sc := testnet.Generate(quickParams(), seed%100000)
		st := state.New(sc)
		for i := range sc.Items {
			item := model.ItemID(i)
			it := sc.Item(item)
			pl := Compute(st, item)
			for _, src := range it.Sources {
				for _, lid := range sc.Network.Outgoing(src.Machine) {
					l := sc.Network.Link(lid)
					if st.Holds(item, l.To) {
						continue
					}
					d := l.TransferDuration(it.SizeBytes)
					slot, ok := st.LinkTimeline(lid).EarliestSlot(src.Available, d)
					if !ok {
						continue
					}
					arrival := slot.Add(d)
					hold := st.HoldInterval(item, l.To, arrival)
					if !st.Capacity(l.To).CanReserve(it.SizeBytes, hold) {
						continue
					}
					if arrival > st.HoldEnd(item, src.Machine) {
						continue
					}
					if pl.Arrival[l.To] > arrival {
						t.Logf("seed %d item %d: label %v beats.. is beaten by direct %v",
							seed, i, pl.Arrival[l.To], arrival)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
