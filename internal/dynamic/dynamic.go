// Package dynamic extends the static data staging scheduler toward the
// paper's stated future work (§1, §6): ad-hoc data requests that arrive
// over time and communication links that fail. It is an event-driven
// re-planning simulator built on the same heuristics:
//
//   - At time 0 the scheduler plans for every request known at time 0.
//   - When new requests arrive (an ItemRelease event), the scheduler
//     re-plans with the already-committed schedule locked in — exactly the
//     paper's rule that "the scheduled transfers remain in the system"
//     (§4.5) — and new transfers may only start at or after the event.
//   - When a virtual link fails (a LinkFail event), the transfer in flight
//     on it is lost along with everything causally downstream of the lost
//     copy; the surviving schedule is replayed against the degraded
//     network and the scheduler re-plans the rest. Requests whose
//     deliveries were lost become open again.
//
// Link failures are where the paper's garbage-collection policy (§4.4)
// earns its keep: copies retained at intermediate machines for γ after an
// item's latest deadline are alternative sources for re-delivery, which is
// exactly the fault-tolerance rationale the paper gives for keeping them.
// TestGammaRetentionEnablesRecovery demonstrates the effect.
package dynamic

import (
	"fmt"
	"sort"
	"time"

	"datastaging/internal/core"
	"datastaging/internal/model"
	"datastaging/internal/obs"
	"datastaging/internal/scenario"
	"datastaging/internal/simtime"
	"datastaging/internal/state"
)

// EventKind discriminates dynamic events.
type EventKind int

// The two event kinds.
const (
	// ItemRelease makes an item's requests known to the scheduler. Items
	// never mentioned in any ItemRelease event are known at time 0.
	ItemRelease EventKind = iota + 1
	// LinkFail takes a virtual link down permanently at the event time.
	LinkFail
)

// Event is one dynamic occurrence.
type Event struct {
	At   simtime.Instant
	Kind EventKind
	// Item is the released item (ItemRelease).
	Item model.ItemID
	// Link is the failed link (LinkFail).
	Link model.LinkID
}

// Outcome is the result of a dynamic simulation.
type Outcome struct {
	// Transfers is the surviving committed schedule.
	Transfers []state.Transfer
	// Satisfied maps satisfied requests to delivery instants, after all
	// failures.
	Satisfied map[model.RequestID]simtime.Instant
	// Aborted lists transfers lost to link failures (in flight or
	// causally downstream of a lost copy).
	Aborted []state.Transfer
	// Replans counts scheduler invocations (one at time 0 plus one per
	// event epoch).
	Replans int
	// Elapsed is total scheduling time across re-plans.
	Elapsed time.Duration
}

// Simulate runs the event-driven re-planning loop. Events may be given in
// any order; simultaneous events are applied together (releases before
// failures at the same instant would be arbitrary, so all events of one
// epoch apply before the epoch's re-plan). It is a thin driver over Engine
// that grows the scenario the way the admission service (internal/serve)
// does online: an item exists from its release instant — its earliest
// ItemRelease event, or 0 without one — and the engine plans over the
// items in (release instant, ID) order. The caller's scenario is not
// mutated, and the Outcome is in the caller's item IDs.
func Simulate(sc *scenario.Scenario, cfg core.Config, events []Event) (*Outcome, error) {
	for i, ev := range events {
		if err := checkEvent(sc, ev); err != nil {
			return nil, fmt.Errorf("dynamic: event %d: %w", i, err)
		}
	}
	evs := make([]Event, len(events))
	copy(evs, events)
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].At < evs[b].At })

	// release[i] is item i's arrival: its earliest ItemRelease, else 0.
	release := make([]simtime.Instant, len(sc.Items))
	for i := len(evs) - 1; i >= 0; i-- { // evs ascend: the earliest writes last
		if evs[i].Kind == ItemRelease {
			release[evs[i].Item] = evs[i].At
		}
	}
	order := make([]model.ItemID, len(sc.Items))
	for i := range order {
		order[i] = model.ItemID(i)
	}
	sort.SliceStable(order, func(a, b int) bool { return release[order[a]] < release[order[b]] })
	// order[k] is the caller's ID of the k-th item to arrive, and items
	// holds them renumbered in that order. The engine plans over work,
	// whose Items is always a prefix of items; it holds &work, so it sees
	// each longer prefix without a SetScenario check.
	items := make([]model.Item, len(order))
	for k, id := range order {
		items[k] = sc.Items[id]
		items[k].ID = model.ItemID(k)
	}
	work := *sc
	known := 0
	grow := func(at simtime.Instant) {
		for known < len(items) && release[order[known]] <= at {
			known++
		}
		work.Items = items[:known]
	}

	grow(0)
	eng, err := NewEngine(&work, cfg)
	if err != nil {
		return nil, err
	}
	begin := time.Now()
	// Epoch 0: schedule everything known at time zero.
	if _, err := eng.ReplanAt(0); err != nil {
		return nil, err
	}

	for i := 0; i < len(evs); {
		at := evs[i].At
		for ; i < len(evs) && evs[i].At == at; i++ {
			if evs[i].Kind == LinkFail {
				eng.FailLink(evs[i].Link, at)
			}
		}
		grow(at)
		if _, err := eng.ReplanAt(at); err != nil {
			return nil, err
		}
	}

	sat := make(map[model.RequestID]simtime.Instant, len(eng.Satisfied()))
	for id, t := range eng.Satisfied() {
		id.Item = order[id.Item]
		sat[id] = t
	}
	return &Outcome{
		Transfers: callerIDs(eng.Transfers(), order),
		Satisfied: sat,
		Aborted:   callerIDs(eng.Aborted(), order),
		Replans:   eng.Replans(),
		Elapsed:   time.Since(begin),
	}, nil
}

// callerIDs copies transfers with their items mapped back through order.
func callerIDs(trs []state.Transfer, order []model.ItemID) []state.Transfer {
	out := make([]state.Transfer, len(trs))
	for i, tr := range trs {
		tr.Item = order[tr.Item]
		out[i] = tr
	}
	return out
}

func checkEvent(sc *scenario.Scenario, ev Event) error {
	switch ev.Kind {
	case ItemRelease:
		if int(ev.Item) < 0 || int(ev.Item) >= len(sc.Items) {
			return fmt.Errorf("unknown item %d", ev.Item)
		}
	case LinkFail:
		if int(ev.Link) < 0 || int(ev.Link) >= len(sc.Network.Links) {
			return fmt.Errorf("unknown link %d", ev.Link)
		}
	default:
		return fmt.Errorf("unknown event kind %d", ev.Kind)
	}
	if ev.At < 0 {
		return fmt.Errorf("negative event time %v", ev.At)
	}
	return nil
}

// observeEpoch records one completed epoch replan: a counter per replan
// (split by incremental vs full-replay path), a counter for transfers
// newly aborted at this epoch, one for transfers the epoch had to replay
// (always zero on the incremental path), a gauge holding the current epoch
// instant (so a live /metrics scrape shows how far the simulation has
// advanced), and an EvEpochReplan event carrying the epoch instant and the
// abort count. A nil Obs makes every call a no-op.
func observeEpoch(o *obs.Obs, es EpochStats) {
	if o == nil {
		return
	}
	o.Counter("dynamic.replans_total").Inc()
	if es.Full {
		o.Counter("dynamic.replans_full_total").Inc()
	} else {
		o.Counter("dynamic.replans_incremental_total").Inc()
	}
	o.Counter("dynamic.replayed_transfers_total").Add(int64(es.ReplayedTransfers))
	o.Counter("dynamic.aborted_transfers_total").Add(int64(es.Aborted))
	o.Gauge("dynamic.current_epoch_seconds").Set(es.At.Seconds())
	if tr := o.Trace(); tr.Enabled() {
		tr.Emit(obs.Event{Kind: obs.EvEpochReplan, At: int64(es.At), N: es.Aborted})
	}
}
