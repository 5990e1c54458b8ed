package core

import (
	"fmt"
	"time"

	"datastaging/internal/model"
	"datastaging/internal/simtime"
	"datastaging/internal/state"
)

// Planner is a persistent planner for incremental admission epochs: unlike
// Schedule, which builds a fresh plan cache per call, a Planner
// keeps its state, plan cache, dead-item flags, and scratch memory alive
// across any number of Epoch calls, so each epoch costs O(delta) — the new
// arrivals plus whatever cached forests the epoch genuinely disturbed — not
// O(world age).
//
// The carried caches stay exact because epochs only move the world forward:
// the planning floor advances monotonically (forests whose planned hops all
// start at or after the new floor recompute bit-identically, see
// dijkstra.Plan.EarliestHopStart), resources only shrink (so dead items
// stay dead — dijkstra.Scratch.ComputeBound covers the one gate a rising
// floor loosens — and cached forests obey the usual conflict-invalidation
// rule),
// and the scenario only grows by appended items (Epoch picks them up via
// State.GrowItems). Anything that rewrites the past — link failure
// backdated before committed transfers, history splices, rollbacks — is
// outside this contract; callers (internal/dynamic.Engine) must rebuild the
// Planner from a replayed state instead.
//
// A Planner is not safe for concurrent use.
type Planner struct {
	p *planner
}

// NewPlannerOn builds a persistent planner over an existing state. The
// state is owned by the planner from here on: the caller may still read it
// (and apply withhold/release/commit deltas between epochs) but must not
// rewind it.
func NewPlannerOn(st *state.State, cfg Config) (*Planner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Planner{p: plannerOn(st, cfg)}, nil
}

// State returns the live state the planner schedules against.
func (pp *Planner) State() *state.State { return pp.p.st }

// ItemRetired reports whether the planner has permanently retired the item:
// every open request is either satisfied or proven unsatisfiable at all
// future floors (resources only shrink, so dead items never revive). A
// capacity-blocked item is retired too once dijkstra's optimistic bound
// shows that no floor can shorten a hold interval enough to deliver in
// time; the ones the bound still reaches stay live, so a false result means
// the item may yet be scheduled by a future epoch. Items the planner has
// not yet tracked are not retired.
func (pp *Planner) ItemRetired(item model.ItemID) bool {
	p := pp.p
	return int(item) < len(p.dead) && p.dead[item]
}

// Epoch advances the planning floor to at and runs the heuristic loop over
// the current backlog. The returned Result sees the whole world (Transfers
// and Satisfied are cumulative, like a full replay would produce) but its
// Stats count only this epoch's work. at must not precede the current
// floor.
func (pp *Planner) Epoch(at simtime.Instant) (*Result, error) {
	p := pp.p
	if at < p.st.Floor() {
		return nil, fmt.Errorf("core: epoch at %v precedes planning floor %v", at, p.st.Floor())
	}
	begin := time.Now()
	p.st.GrowItems()
	p.grow()
	p.advanceFloor(at)
	prev := p.stats
	res, err := p.run(p.cfg, begin)
	if err != nil {
		return nil, err
	}
	res.Stats = subStats(res.Stats, prev)
	if p.obsOn {
		// The last candidates pass leaves the items it retired on the live
		// list for the next pass to compact; they are not backlog.
		live := 0
		for _, item := range p.live {
			if !p.dead[item] {
				live++
			}
		}
		p.gLive.Set(float64(live))
	}
	return res, nil
}

// subStats returns the field-wise difference cur − prev. Every Stats field
// is an additive accumulator (ReplanWall is the phase timer's cumulative
// total), so the difference is exactly one epoch's work.
func subStats(cur, prev Stats) Stats {
	return Stats{
		DijkstraRuns:  cur.DijkstraRuns - prev.DijkstraRuns,
		CacheHits:     cur.CacheHits - prev.CacheHits,
		Invalidations: cur.Invalidations - prev.Invalidations,
		Iterations:    cur.Iterations - prev.Iterations,
		Commits:       cur.Commits - prev.Commits,
		ReplanWall:    cur.ReplanWall - prev.ReplanWall,
	}
}
