// Package explain diagnoses scheduling outcomes: given a finished run and a
// request, it reports why the request was or was not satisfied — infeasible
// even on an idle network, starved of resources by other transfers (and by
// which), or simply delivered. stagerun exposes it as -explain; it is also
// a debugging aid when a workload behaves unexpectedly.
package explain

import (
	"fmt"
	"strings"
	"time"

	"datastaging/internal/dijkstra"
	"datastaging/internal/model"
	"datastaging/internal/obs"
	"datastaging/internal/scenario"
	"datastaging/internal/simtime"
	"datastaging/internal/state"
)

// Verdict classifies a request's outcome.
type Verdict int

// The possible outcomes.
const (
	// Satisfied: the schedule delivered the item by the deadline.
	Satisfied Verdict = iota + 1
	// InfeasibleAlone: even on an idle network the item cannot reach the
	// destination by the deadline (no window/bandwidth/capacity
	// combination works) — the request is outside possible_satisfy.
	InfeasibleAlone
	// Starved: feasible alone, but the committed schedule consumed
	// resources its best path needed.
	Starved
	// DeliveredLate: the schedule moved the item to the destination, but
	// after the deadline.
	DeliveredLate
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Satisfied:
		return "satisfied"
	case InfeasibleAlone:
		return "infeasible-even-alone"
	case Starved:
		return "starved-by-contention"
	case DeliveredLate:
		return "delivered-late"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Report is the full diagnosis of one request.
type Report struct {
	Request model.RequestID
	Verdict Verdict
	// Deadline and Arrival (when a copy reached the destination; zero
	// otherwise).
	Deadline simtime.Instant
	Arrival  simtime.Instant
	// IdealArrival is the arrival on an idle network (possible_satisfy's
	// view); Never if unreachable even alone.
	IdealArrival simtime.Instant
	// IdealPath is the idle-network path (empty when unreachable).
	IdealPath []dijkstra.Hop
	// Blockers are the committed transfers that occupy the ideal path's
	// links around the times the request needed them (only for Starved).
	Blockers []state.Transfer
}

// Diagnose explains one request's outcome under a committed schedule. It is
// a one-shot Diagnoser; a caller diagnosing more than one request of the same
// scenario should hold a Diagnoser instead.
func Diagnose(sc *scenario.Scenario, transfers []state.Transfer, id model.RequestID) (*Report, error) {
	var d Diagnoser
	return d.Diagnose(sc, transfers, id)
}

// Diagnoser diagnoses any number of requests against one idle world. The
// idle-network view of a request depends only on the scenario, so the idle
// state.State (every link timeline, two slices per item, the physical-link
// groups) is built once and then follows the scenario as it grows instead of
// being rebuilt per request; the shortest-path scratch and forest are
// recycled too. Reports are exactly those of the package-level Diagnose.
//
// The zero value is ready to use. Between calls the scenario a Diagnoser has
// seen may only grow by appended items (the state.GrowItems contract); a
// different *Scenario starts a fresh idle world. Not safe for concurrent use.
type Diagnoser struct {
	idle    *state.State
	scratch dijkstra.Scratch
	ideal   *dijkstra.Plan

	mDiagnoses, mPops, mRelaxations, mScanned *obs.Counter
}

// SetObs counts the Diagnoser's work in o from now on, under names of its
// own so the planner's dijkstra.* counters keep counting the planner alone:
// explain.diagnoses_total (Diagnose calls that found their request),
// explain.pops_total and explain.relaxations_total (its idle-network
// walks), and explain.transfers_scanned_total (committed-transfer records
// read by the delivery check and the blockers scan). A nil o counts
// nothing.
func (d *Diagnoser) SetObs(o *obs.Obs) {
	d.mDiagnoses = o.Counter("explain.diagnoses_total")
	d.mPops = o.Counter("explain.pops_total")
	d.mRelaxations = o.Counter("explain.relaxations_total")
	d.mScanned = o.Counter("explain.transfers_scanned_total")
}

// Diagnose explains one request's outcome under a committed schedule.
func (d *Diagnoser) Diagnose(sc *scenario.Scenario, transfers []state.Transfer, id model.RequestID) (*Report, error) {
	if int(id.Item) < 0 || int(id.Item) >= len(sc.Items) {
		return nil, fmt.Errorf("explain: unknown item %d", id.Item)
	}
	it := sc.Item(id.Item)
	if id.Index < 0 || id.Index >= len(it.Requests) {
		return nil, fmt.Errorf("explain: item %d has no request %d", id.Item, id.Index)
	}
	rq := it.Requests[id.Index]
	rep := &Report{Request: id, Deadline: rq.Deadline}

	// Idle-network view.
	if d.idle == nil || d.idle.Scenario() != sc {
		d.idle = state.New(sc)
	} else {
		d.idle.GrowItems()
	}
	d.mDiagnoses.Inc()
	before := d.scratch.Stats()
	d.ideal = d.scratch.Compute(d.idle, id.Item, d.ideal)
	after := d.scratch.Stats()
	d.mPops.Add(int64(after.Pops - before.Pops))
	d.mRelaxations.Add(int64(after.Relaxations - before.Relaxations))
	rep.IdealArrival = d.ideal.Arrival[rq.Machine]
	if hops, ok := d.ideal.PathTo(rq.Machine); ok {
		rep.IdealPath = hops
	}

	// Actual delivery, reconstructed from the schedule.
	scanned := len(transfers)
	for i, tr := range transfers {
		if tr.Item == id.Item && tr.To == rq.Machine {
			rep.Arrival = tr.Arrival
			scanned = i + 1
			break
		}
	}

	switch {
	case rep.Arrival != 0 && !rep.Arrival.After(rq.Deadline):
		rep.Verdict = Satisfied
	case rep.Arrival != 0:
		rep.Verdict = DeliveredLate
	case rep.IdealArrival == simtime.Never || rep.IdealArrival.After(rq.Deadline):
		rep.Verdict = InfeasibleAlone
	default:
		rep.Verdict = Starved
		rep.Blockers = blockers(rep.IdealPath, transfers, id.Item)
		scanned += len(rep.IdealPath) * len(transfers)
	}
	d.mScanned.Add(int64(scanned))
	return rep, nil
}

// BlamedLink picks the single link a starved request's failure is charged
// to: the ideal-path link whose blockers overlapped the request's ideal
// slot the longest (ties: lowest link ID), along with the total overlap.
// ok is false when the report has no overlapping blockers (starved purely
// by capacity or windows, not link contention) — including for any verdict
// other than Starved, where Blockers is empty by construction.
func (r *Report) BlamedLink() (link model.LinkID, blocked time.Duration, ok bool) {
	overlap := make(map[model.LinkID]time.Duration)
	for _, h := range r.IdealPath {
		want := simtime.Span(h.Start, h.Dur)
		for _, tr := range r.Blockers {
			if tr.Link != h.Link {
				continue
			}
			overlap[h.Link] += simtime.Span(tr.Start, tr.Duration).Intersect(want).Length()
		}
	}
	for l, d := range overlap {
		if d == 0 {
			continue
		}
		if !ok || d > blocked || (d == blocked && l < link) {
			link, blocked, ok = l, d, true
		}
	}
	return link, blocked, ok
}

// blockers collects other items' transfers that occupy the ideal path's
// links at or before the times the ideal plan wanted them — the contention
// that displaced this request.
func blockers(path []dijkstra.Hop, transfers []state.Transfer, self model.ItemID) []state.Transfer {
	var out []state.Transfer
	for _, h := range path {
		want := simtime.Span(h.Start, h.Dur)
		for _, tr := range transfers {
			if tr.Item == self || tr.Link != h.Link {
				continue
			}
			if simtime.Span(tr.Start, tr.Duration).Overlaps(want) {
				out = append(out, tr)
			}
		}
	}
	return out
}

// Format renders the report as human-readable text.
func (r *Report) Format(sc *scenario.Scenario) string {
	var b strings.Builder
	rq := sc.Request(r.Request)
	fmt.Fprintf(&b, "%v (%s, item %q → machine %d, deadline %v): %v\n",
		r.Request, rq.Priority, sc.Item(r.Request.Item).Name, rq.Machine, r.Deadline, r.Verdict)
	switch r.Verdict {
	case Satisfied:
		fmt.Fprintf(&b, "  delivered at %v, %v before the deadline\n",
			r.Arrival, r.Deadline.Sub(r.Arrival).Round(time.Second))
	case DeliveredLate:
		fmt.Fprintf(&b, "  delivered at %v, %v after the deadline\n",
			r.Arrival, r.Arrival.Sub(r.Deadline).Round(time.Second))
	case InfeasibleAlone:
		if r.IdealArrival == simtime.Never {
			fmt.Fprintf(&b, "  unreachable even on an idle network: no window/capacity path admits the item\n")
		} else {
			fmt.Fprintf(&b, "  even alone the item arrives at %v, %v past the deadline\n",
				r.IdealArrival, r.IdealArrival.Sub(r.Deadline).Round(time.Second))
		}
	case Starved:
		fmt.Fprintf(&b, "  feasible alone (ideal arrival %v) but displaced by contention\n", r.IdealArrival)
		for _, h := range r.IdealPath {
			fmt.Fprintf(&b, "  ideal hop m%d→m%d via link %d at %v\n", h.From, h.To, h.Link, h.Start)
		}
		for _, tr := range r.Blockers {
			fmt.Fprintf(&b, "  blocked by item %d on link %d during [%v, %v)\n",
				tr.Item, tr.Link, tr.Start, tr.Arrival)
		}
	}
	return b.String()
}
