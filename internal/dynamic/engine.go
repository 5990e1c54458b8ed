package dynamic

import (
	"fmt"

	"datastaging/internal/core"
	"datastaging/internal/model"
	"datastaging/internal/scenario"
	"datastaging/internal/simtime"
	"datastaging/internal/state"
)

// Engine is the epoch re-planning seam shared by the offline simulator
// (Simulate) and the online admission service (internal/serve). It owns the
// event-world bookkeeping — which links are down, the surviving transfer
// history — and turns it into one scheduling epoch at a time. An item
// exists from the instant it arrives: callers append it to the scenario
// and hand the engine the grown scenario (SetScenario).
//
// Committed state persists across epochs: the engine keeps one live
// state.State whose planning floor advances monotonically and one
// persistent core.Planner whose plan cache carries forward, so an ordinary
// epoch (new arrivals grown in, floor advanced, heuristic run over the open
// backlog) costs O(epoch delta), independent of how much history has
// accumulated. Only the two events that rewrite the past — a link failure
// (FailLink), which can invalidate already-committed transfers, and a
// Rollback to a Checkpoint — mark the engine dirty and force the next
// ReplanAt through replanFull, the original rebuild-and-replay path, which
// doubles as the correctness oracle for the incremental path (see
// engine_diff_test.go).
//
// The Engine is not safe for concurrent use; callers that take submissions
// from many goroutines (internal/serve) serialize access themselves.
type Engine struct {
	cfg core.Config
	sc  *scenario.Scenario
	st  *state.State
	pl  *core.Planner

	outages map[model.LinkID]simtime.Instant

	// history is the committed schedule surviving the last epoch. On the
	// incremental path it aliases the live state's append-only transfer
	// log; replanFull replays it into a rebuilt state (losses cascade).
	history []state.Transfer
	aborted []state.Transfer
	replans int

	// dirty records that the past was rewritten (link failure, rollback)
	// since the last epoch; the next ReplanAt must take
	// the full-replay path. forceFull pins every epoch to that path — the
	// differential harness and benchmarks use it as the oracle knob.
	dirty     bool
	forceFull bool
	last      EpochStats
}

// EpochStats describes how the engine executed its most recent epoch.
type EpochStats struct {
	// At is the epoch instant.
	At simtime.Instant
	// Full reports whether the epoch took the full-replay path (first
	// epoch, after a past-rewriting event, or forced).
	Full bool
	// ReplayedTransfers is how many historical transfers the epoch
	// re-committed into a rebuilt state; always zero on the incremental
	// path — that is the point.
	ReplayedTransfers int
	// DeltaItems is how many scenario items this epoch saw for the first
	// time (appended since the previous epoch).
	DeltaItems int
	// Aborted is how many transfers this epoch's replay lost.
	Aborted int
}

// NewEngine returns an engine planning for sc under cfg. No epoch has run
// yet: Transfers is empty until the first ReplanAt.
func NewEngine(sc *scenario.Scenario, cfg core.Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{
		cfg:     cfg,
		sc:      sc,
		outages: make(map[model.LinkID]simtime.Instant),
	}, nil
}

// Scenario returns the instance the engine currently plans for.
func (e *Engine) Scenario() *scenario.Scenario { return e.sc }

// SetScenario replaces the planning instance. The new scenario must be an
// append-only extension of the old one — same network, existing items
// unchanged, new items only appended — because the committed history and
// the live state refer to items by ID. Passing the pointer the engine
// already holds (the caller appended to the shared scenario in place, as
// internal/serve does) is trusted and O(1); a different pointer is verified
// structurally against the current scenario and rejected with an error when
// the extension is not append-only.
func (e *Engine) SetScenario(sc *scenario.Scenario) error {
	if sc == e.sc {
		return nil
	}
	if err := checkAppendOnly(e.sc, sc); err != nil {
		return err
	}
	e.sc = sc
	if e.st != nil {
		e.st.AdoptScenario(sc)
	}
	return nil
}

// checkAppendOnly verifies that next extends prev without rewriting it.
func checkAppendOnly(prev, next *scenario.Scenario) error {
	if next == nil {
		return fmt.Errorf("dynamic: SetScenario: nil scenario")
	}
	if next.Network != prev.Network {
		return fmt.Errorf("dynamic: SetScenario: network replaced; engine state refers to the old network")
	}
	if len(next.Items) < len(prev.Items) {
		return fmt.Errorf("dynamic: SetScenario: item list shrank from %d to %d", len(prev.Items), len(next.Items))
	}
	for i := range prev.Items {
		if !sameItem(&prev.Items[i], &next.Items[i]) {
			return fmt.Errorf("dynamic: SetScenario: item %d changed; extension must be append-only", i)
		}
	}
	return nil
}

// sameItem reports whether two items are structurally identical.
func sameItem(a, b *model.Item) bool {
	if a.ID != b.ID || a.Name != b.Name || a.SizeBytes != b.SizeBytes ||
		len(a.Sources) != len(b.Sources) || len(a.Requests) != len(b.Requests) {
		return false
	}
	for k := range a.Sources {
		if a.Sources[k] != b.Sources[k] {
			return false
		}
	}
	for k := range a.Requests {
		if a.Requests[k] != b.Requests[k] {
			return false
		}
	}
	return true
}

// FailLink takes a virtual link down permanently from instant t. Idempotent;
// an earlier failure time wins. A failure can strand transfers that were
// already committed (and anything causally downstream of them), so it
// rewrites the past: the next ReplanAt takes the full-replay path.
func (e *Engine) FailLink(link model.LinkID, t simtime.Instant) {
	if prev, ok := e.outages[link]; !ok || t < prev {
		e.outages[link] = t
		e.dirty = true
	}
}

// SetFullReplay pins (or unpins) every subsequent epoch to the full-replay
// path. The differential tests and benchmarks use it to run the replay
// oracle against the incremental fast path.
func (e *Engine) SetFullReplay(on bool) { e.forceFull = on }

// ReplanAt runs one scheduling epoch at instant at. The fast path applies
// the epoch delta to the persistent world — new items grown in, floor
// advanced, heuristic run over the open backlog — and is O(delta). The
// engine falls back to a full rebuild-and-replay only when no epoch has run
// yet, when the past was rewritten since the last epoch (FailLink,
// Rollback), when at precedes the current floor, or when forced via
// SetFullReplay.
func (e *Engine) ReplanAt(at simtime.Instant) (*core.Result, error) {
	deltaItems := len(e.sc.Items)
	if e.st != nil {
		deltaItems -= e.st.NumTrackedItems()
	}
	if e.pl == nil || e.dirty || e.forceFull || at < e.st.Floor() {
		return e.replanFull(at, deltaItems)
	}
	return e.replanIncremental(at, deltaItems)
}

// replanFull rebuilds the world from scratch: fresh state, current outages
// re-applied, surviving history replayed (transfers that no longer commit
// are aborted and the loss cascades), floor advanced, then one epoch of the
// heuristic. It also rebuilds the persistent planner the incremental path
// continues from.
func (e *Engine) replanFull(at simtime.Instant, deltaItems int) (*core.Result, error) {
	abortedBefore := len(e.aborted)
	st := state.New(e.sc)
	for link, t := range e.outages {
		st.FailLink(link, t)
	}
	replayed := 0
	for _, tr := range e.history {
		if _, err := st.Commit(tr.Item, tr.Link, tr.Start); err != nil {
			e.aborted = append(e.aborted, tr)
		} else {
			replayed++
		}
	}
	st.SetFloor(at)

	pl, err := core.NewPlannerOn(st, e.cfg)
	if err != nil {
		return nil, fmt.Errorf("dynamic: replan %d: %w", e.replans, err)
	}
	res, err := pl.Epoch(at)
	if err != nil {
		return nil, fmt.Errorf("dynamic: replan %d: %w", e.replans, err)
	}
	e.st, e.pl = st, pl
	e.dirty = false
	e.finishEpoch(res, EpochStats{
		At: at, Full: true, ReplayedTransfers: replayed,
		DeltaItems: deltaItems, Aborted: len(e.aborted) - abortedBefore,
	})
	return res, nil
}

// replanIncremental runs one epoch against the persistent world. Nothing is
// replayed: committed transfers, satisfied requests, dead items, and cached
// forests all survive from the previous epoch, and only the delta (newly
// appended items, the floor advance) is processed.
func (e *Engine) replanIncremental(at simtime.Instant, deltaItems int) (*core.Result, error) {
	res, err := e.pl.Epoch(at)
	if err != nil {
		return nil, fmt.Errorf("dynamic: replan %d: %w", e.replans, err)
	}
	e.finishEpoch(res, EpochStats{At: at, DeltaItems: deltaItems})
	return res, nil
}

func (e *Engine) finishEpoch(res *core.Result, es EpochStats) {
	e.history = e.st.Transfers()
	e.replans++
	e.last = es
	observeEpoch(e.cfg.Obs, es)
}

// LastEpoch describes the most recent ReplanAt: which path it took and how
// big its delta was. Zero value before the first epoch.
func (e *Engine) LastEpoch() EpochStats { return e.last }

// State returns the live resource state (nil before the first ReplanAt).
func (e *Engine) State() *state.State { return e.st }

// Transfers returns the surviving committed schedule in commit order. The
// slice is shared; do not mutate.
func (e *Engine) Transfers() []state.Transfer { return e.history }

// Satisfied returns the satisfied requests of the last epoch (nil before
// the first ReplanAt). The map is shared; do not mutate.
func (e *Engine) Satisfied() map[model.RequestID]simtime.Instant {
	if e.st == nil {
		return nil
	}
	return e.st.Satisfied()
}

// ItemRetired reports whether the planner has permanently retired the
// item: every request is satisfied or proven unsatisfiable at all future
// floors, so no later epoch can schedule more of it — short of a history
// rewrite, after which the rebuilt planner re-derives retirement from
// scratch. False before the first ReplanAt, for untracked items, and for
// the capacity-blocked items a later floor could still bring back (those
// the planner's optimistic bound reaches in time).
func (e *Engine) ItemRetired(item model.ItemID) bool {
	return e.pl != nil && e.pl.ItemRetired(item)
}

// Aborted lists transfers lost so far (in flight on a failed link, or
// causally downstream of a lost copy). The slice is shared; do not mutate.
func (e *Engine) Aborted() []state.Transfer { return e.aborted }

// Replans counts completed epochs.
func (e *Engine) Replans() int { return e.replans }

// Checkpoint captures the engine's epoch bookkeeping so a speculative
// ReplanAt can be undone with Rollback.
type Checkpoint struct {
	history []state.Transfer
	aborted int
}

// Checkpoint snapshots the current history in O(1). No copy is needed: the
// history only grows (an incremental epoch appends to the state's transfer
// log, which never mutates the prefix this checkpoint's slice header
// covers) or is replaced outright by a full replay's fresh array, so the
// snapshot's backing array can never be rewritten underneath it.
func (e *Engine) Checkpoint() Checkpoint {
	return Checkpoint{history: e.history, aborted: len(e.aborted)}
}

// Rollback restores a checkpoint's history and discards aborts recorded
// since. Rolling back rewrites the past, so the next ReplanAt takes the
// full-replay path, which deterministically reproduces the pre-speculation
// schedule (the replay and the heuristics are deterministic).
func (e *Engine) Rollback(cp Checkpoint) {
	e.history = cp.history
	e.aborted = e.aborted[:cp.aborted]
	e.dirty = true
}
