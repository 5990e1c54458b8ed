package core

import (
	"slices"

	"datastaging/internal/dijkstra"
	"datastaging/internal/model"
	"datastaging/internal/scenario"
	"datastaging/internal/simtime"
	"datastaging/internal/state"
)

// scheduleParanoid re-runs Dijkstra for every item on every iteration, the
// implementation the paper describes. The plan cache must produce
// byte-identical schedules.
func scheduleParanoid(sc *scenario.Scenario, cfg Config) (*Result, error) {
	cfg.Paranoid = true
	return Schedule(sc, cfg)
}

// selectBest returns the index of the first candidate in selection order
// (the one the heuristic loop commits) and its best destination's index,
// or -1 when there is none.
func selectBest(cands []candidate) (int, int) {
	bi := -1
	for i := range cands {
		if bi < 0 || cands[i].before(&cands[bi]) {
			bi = i
		}
	}
	if bi < 0 {
		return -1, 0
	}
	return bi, cands[bi].bestDest
}

// sweepConflicts is the commit sweep the touch index replaced, kept as the
// oracle of TestTouchIndexMatchesSweep: it asks every live item other than
// the committed one whose forest was cached before the commit (cached is a
// copy of p.plans taken then) whether the committed transfer conflicts with
// it, and returns the ones that do in ascending item order. It walks every
// machine of each forest, not Plan.Kept.
func (p *planner) sweepConflicts(cached []*dijkstra.Plan, item model.ItemID, tr state.Transfer) []model.ItemID {
	trSpan := simtime.Span(tr.Start, tr.Duration)
	serial := p.st.SerialTransfers()
	var out []model.ItemID
	for _, i := range p.live {
		if pl := cached[i]; pl != nil && i != item && sweepConflict(p.st, pl, tr, trSpan, serial) {
			out = append(out, i)
		}
	}
	return out
}

// sweepConflict is planConflicts as the sweep ran it, over every machine.
func sweepConflict(st *state.State, pl *dijkstra.Plan, tr state.Transfer, trSpan simtime.Interval, serial bool) bool {
	if pl.CapBlocked && (serial || slices.Contains(pl.CapFailed, tr.To)) {
		return true
	}
	for v := range pl.Via {
		if pl.Via[v] == dijkstra.NoLink {
			continue
		}
		span := simtime.Span(pl.Start[v], pl.Dur[v])
		if pl.Via[v] == tr.Link && span.Overlaps(trSpan) {
			return true
		}
		if serial && span.Overlaps(trSpan) {
			from, to := pl.Pred[v], model.MachineID(v)
			if from == tr.From || from == tr.To || to == tr.From || to == tr.To {
				return true
			}
		}
	}
	to := tr.To
	if pl.Arrival[to] != simtime.Never && pl.Pred[to] != dijkstra.NoMachine {
		size := st.Scenario().Item(pl.Item).SizeBytes
		hold := st.HoldInterval(pl.Item, to, pl.Arrival[to])
		if !st.Capacity(to).CanReserve(size, hold) {
			return true
		}
	}
	return false
}
