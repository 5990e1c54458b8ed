package core

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"datastaging/internal/dijkstra"
	"datastaging/internal/model"
	"datastaging/internal/obs"
	"datastaging/internal/scenario"
	"datastaging/internal/simtime"
	"datastaging/internal/state"
)

// Stats counts the work a scheduling run performed.
type Stats struct {
	// DijkstraRuns is how many shortest-path computations ran.
	DijkstraRuns int
	// CacheHits is how many times a cached forest was reused where the
	// paper's described implementation would have re-run Dijkstra.
	CacheHits int
	// Invalidations is how many cached forests a committed transfer
	// conflicted with.
	Invalidations int
	// Iterations is the number of select-and-commit rounds.
	Iterations int
	// Commits is the number of committed transfers (communication steps).
	Commits int
	// ReplanWall is the wall-clock time spent computing shortest-path
	// forests, across both prefetch passes and lazy recomputes, as
	// accumulated by the planner's obs.PhaseTimer. Unlike the counters
	// above it is timing-dependent, not deterministic.
	ReplanWall time.Duration
}

// planner owns the resource state and the per-item plan cache for one
// scheduling run.
//
// Cache invariant: on every machine it keeps, a cached forest is exactly
// the dijkstra.ComputeTrimmed forest of the current state, and it keeps
// every machine on the paths to request machines reached by their
// deadlines — everything a heuristic reads. A cap-blocked forest keeps
// every machine its walk settled before it stopped at the item's last
// request machine, and records a failed capacity check only on the
// relaxations out of those, so the rules below see every hop whose delay
// could turn a recorded failure around. Committing a transfer only
// shrinks resources, so a labelled arrival can only get later, and a
// relaxation that lost can only lose again, with one exception: a failed
// capacity check can pass once its arrival is delayed, because the hold
// interval shrinks. planConflicts therefore drops a cached forest when the
// commit
//
//   - overlaps one of its planned hops on the same link (or, with
//     serialized transfers, on a port of either end),
//   - undercuts the capacity backing one of its arrivals, or
//   - for a cap-blocked forest, lands on a machine in Plan.CapFailed or,
//     with serialized transfers, lands anywhere (the delay may come through
//     the sender's port).
//
// The committed item's own forest is always dropped because it gained a
// holder (its labels can improve). TestPlanCacheMatchesParanoidRerun and
// FuzzPlanCacheMatchesParanoid pin the invariant against Config.Paranoid,
// which recomputes every forest on every commit as the paper does.
//
// A commit asks planConflicts only about the forests the touch index names
// for it (see dropConflicts); TestTouchIndexMatchesSweep pins that against the
// sweep over every cached forest it replaced.
type planner struct {
	st    *state.State
	cfg   Config
	plans []*dijkstra.Plan
	// fresh[i] marks a plan computed by prefetch but not yet consumed by
	// plan(); its Dijkstra run is counted at first use so Stats are
	// identical to the lazy path.
	fresh []bool
	// dead[i] marks an item with no open request that any future epoch could
	// satisfy (see markDead); dead items never revive and are skipped
	// forever.
	dead []bool
	// live lists the not-yet-dead items in ascending ID order; candidate
	// passes iterate it (compacting dead entries away) instead of scanning
	// every scenario item, so a long-lived incremental planner pays per
	// epoch for its open backlog, not for the world's whole history.
	// Invariant: live is a superset of the items with dead[i] == false,
	// ascending; items that die during a candidates pass linger until the
	// next pass compacts them (their plans are already recycled, so the
	// lingering entries are nil-plan no-ops everywhere live is walked).
	live  []model.ItemID
	stats Stats
	// freePlans recycles invalidated Plan structs: their slices back the
	// next recompute instead of being reallocated.
	freePlans []*dijkstra.Plan
	// scratch backs every forest computation.
	scratch *dijkstra.Scratch
	// Plan material is carved from grow-only arenas: a new Plan and its
	// five per-machine label slices come from recycled slabs, pre-sized so
	// the compute kernels never reallocate them. The arenas are never
	// Reset — plans live as long as the planner — they only amortize
	// growth into O(log n) slab allocations; steady state is covered by
	// freePlans recycling.
	planArena arena[dijkstra.Plan]
	instArena arena[simtime.Instant]
	machArena arena[model.MachineID]
	linkArena arena[model.LinkID]
	durArena  arena[time.Duration]
	// queue and cands are per-iteration scratch reused across rounds to
	// keep the select-and-commit loop allocation-free; hops, pathBuf, and
	// seen back the commit paths the same way.
	queue   []model.ItemID
	cands   []candidate
	hops    []dijkstra.Hop
	pathBuf []dijkstra.Hop
	seen    []bool
	// candGroups[i] caches item i's candidate groups exactly as the last
	// build produced them; candValid[i] says the cache is current. An
	// item's candidates are a pure function of its forest, its own
	// satisfaction/holder state, and the planning floor — and every event
	// that moves any of those (a commit touching the item, a conflict or
	// floor invalidation, paranoid mode) already goes through invalidate,
	// which clears the bit. So a valid cache entry is bit-identical to
	// what a rebuild would produce, and the per-iteration candidates pass
	// costs O(invalidated) instead of O(live backlog).
	candGroups [][]candidate
	candValid  []bool
	// openCache[i] caches item i's open-request indices. Unlike the
	// forest and candidate caches, the open set moves only when the
	// item's own satisfaction or holders change — that is, on the item's
	// own commit (ReasonOwner) — so conflict and floor invalidations
	// leave it intact and a rebuilt candidates pass skips the
	// per-request satisfaction probes entirely.
	openCache [][]int
	openValid []bool
	// touch is the plan cache's subscription index: touch[v] is the set of
	// items whose cached forest has a kept hop entering machine v (with
	// serialized transfers, entering or leaving it) or has v in CapFailed,
	// and capBlocked the set whose cached forest is CapBlocked. A forest
	// subscribes where it enters the cache (plan, prefetch) and unsubscribes
	// in invalidate, so the index names exactly the cached forests.
	touch      []itemSet
	capBlocked itemSet
	// paranoid drops every cached forest on every commit, reproducing the
	// paper's re-run-Dijkstra-each-iteration implementation. Tests compare
	// it against the conflict-tracking cache to prove they are equivalent.
	paranoid bool

	// Observability handles, resolved once from cfg.Obs. With cfg.Obs nil
	// every handle below is nil and each call is a predictable
	// branch-and-return; only Event construction needs an explicit
	// tr.Enabled() guard. replanTimer is always usable — it is how
	// Stats.ReplanWall is accumulated even with observability off.
	tr          *obs.Tracer
	replanTimer *obs.PhaseTimer
	obsOn       bool
	// flushedScratch snapshots the last scratch stats flushed into the
	// registry so repeated flushes (one per incremental epoch) only add
	// deltas to the counters.
	flushedScratch dijkstra.ScratchStats
	mIterations, mCommits, mDijkstra, mCacheHits, mInvalidations,
	mCostEvals, mSatisfied, mRetired *obs.Counter
	gLive               *obs.Gauge
	hCandidates, hSlack *obs.Histogram
}

func newPlanner(sc *scenario.Scenario, cfg Config) *planner {
	return plannerOn(state.New(sc), cfg)
}

// plannerOn builds a planner over an existing (possibly pre-committed)
// state.
func plannerOn(st *state.State, cfg Config) *planner {
	items := len(st.Scenario().Items)
	p := &planner{
		st:         st,
		cfg:        cfg,
		plans:      make([]*dijkstra.Plan, items),
		fresh:      make([]bool, items),
		dead:       make([]bool, items),
		live:       make([]model.ItemID, items),
		candGroups: make([][]candidate, items),
		candValid:  make([]bool, items),
		openCache:  make([][]int, items),
		openValid:  make([]bool, items),
		touch:      make([]itemSet, st.Scenario().Network.NumMachines()),
		scratch:    dijkstra.NewScratch(),
		paranoid:   cfg.Paranoid,
	}
	for i := range p.live {
		p.live[i] = model.ItemID(i)
	}
	p.grow()
	o := cfg.Obs
	p.tr = o.Trace()
	p.replanTimer = o.Phase("core.replan")
	if o != nil {
		p.obsOn = true
		st.SetObs(o)
		p.mIterations = o.Counter("core.iterations_total")
		p.mCommits = o.Counter("core.commits_total")
		p.mDijkstra = o.Counter("core.dijkstra_runs_total")
		p.mCacheHits = o.Counter("core.cache_hits_total")
		p.mInvalidations = o.Counter("core.invalidations_total")
		p.mCostEvals = o.Counter("core.cost_evaluations_total")
		p.mSatisfied = o.Counter("core.requests_satisfied_total")
		p.mRetired = o.Counter("core.items_retired_total")
		p.gLive = o.Gauge("core.live_items")
		p.hCandidates = o.Histogram("core.iteration_candidates", obs.CountBuckets)
		p.hSlack = o.Histogram("core.satisfaction_slack_seconds", obs.SlackBuckets)
	}
	return p
}

// flushScratchMetrics aggregates the Dijkstra scratch counters (reuse
// hits, buffer grows, heap high-water, pops and relaxations) into the
// registry at end of run.
// Scratch stats are cumulative over the scratch's lifetime, so a persistent
// planner flushing once per epoch adds only the delta since the last flush
// (the high-water gauge takes the cumulative max either way).
func (p *planner) flushScratchMetrics() {
	if !p.obsOn {
		return
	}
	ds := p.scratch.Stats()
	prev := p.flushedScratch
	p.flushedScratch = ds
	o := p.cfg.Obs
	o.Counter("dijkstra.computes_total").Add(int64(ds.Computes - prev.Computes))
	o.Counter("dijkstra.scratch_reuse_hits_total").Add(int64(ds.ReuseHits() - prev.ReuseHits()))
	o.Counter("dijkstra.scratch_grows_total").Add(int64(ds.Grows - prev.Grows))
	o.Counter("dijkstra.pops_total").Add(int64(ds.Pops - prev.Pops))
	o.Counter("dijkstra.relaxations_total").Add(int64(ds.Relaxations - prev.Relaxations))
	o.Gauge("dijkstra.heap_high_water").SetMax(float64(ds.HeapHighWater))
}

// takeFree pops a recycled Plan for reuse, or nil when none is available.
func (p *planner) takeFree() *dijkstra.Plan {
	n := len(p.freePlans)
	if n == 0 {
		return nil
	}
	pl := p.freePlans[n-1]
	p.freePlans[n-1] = nil
	p.freePlans = p.freePlans[:n-1]
	return pl
}

// takePlan returns a Plan ready for the compute kernels: a recycled one
// when available, otherwise a fresh one carved from the planner's arenas
// with every label slice and Kept pre-sized to the machine count, so the
// kernels' growSlice calls always hit capacity and a growth burst (a new
// item wave) costs a handful of slab allocations instead of seven per plan.
// CapFailed grows on a plan's first capacity failure and is recycled with
// it.
func (p *planner) takePlan() *dijkstra.Plan {
	if pl := p.takeFree(); pl != nil {
		return pl
	}
	m := p.st.Scenario().Network.NumMachines()
	pl := &p.planArena.Alloc(1)[0]
	pl.Arrival = p.instArena.Alloc(m)
	pl.Pred = p.machArena.Alloc(m)
	pl.Via = p.linkArena.Alloc(m)
	pl.Start = p.instArena.Alloc(m)
	pl.Dur = p.durArena.Alloc(m)
	pl.Kept = p.machArena.Alloc(m)[:0]
	return pl
}

// invalidate drops an item's cached forest and recycles the struct. The
// reason is purely observational (traced only when a forest was actually
// dropped).
func (p *planner) invalidate(item model.ItemID, why obs.Reason) {
	p.candValid[item] = false
	if why == obs.ReasonOwner || why == obs.ReasonParanoid {
		p.openValid[item] = false
	}
	if pl := p.plans[item]; pl != nil {
		p.subscribe(item, pl, false)
		p.freePlans = append(p.freePlans, pl)
		p.plans[item] = nil
		p.fresh[item] = false
		if p.tr.Enabled() {
			p.tr.Emit(obs.Event{Kind: obs.EvForestInvalidated, Item: int(item), Reason: why})
		}
	}
}

// markDead retires an item forever. Callers have proven that no open request
// of the item can be satisfied in this state or any the planner can move it
// to: free link time and storage only shrink and the floor only rises, which
// settles it for a forest that met no storage rejection, and a cap-blocked
// forest is settled by the optimistic bound (boundAdmits). Its cached forest,
// if any, is recycled on the spot: a dead item's forest is never consulted
// again, and a long-lived incremental planner must not pin one Plan per
// retired item for the life of the world. The next candidates pass drops the
// item from the live list.
func (p *planner) markDead(item model.ItemID, why obs.Reason) {
	p.dead[item] = true
	p.mRetired.Inc()
	p.invalidate(item, why)
	if p.tr.Enabled() {
		p.tr.Emit(obs.Event{Kind: obs.EvItemDead, Item: int(item), Reason: why})
	}
}

// grow extends the per-item planner bookkeeping, the touch index's sets
// included, to cover items appended to the scenario since the planner was
// built (incremental epochs over an append-only growing scenario). New
// items start live with no cached forest.
func (p *planner) grow() {
	items := len(p.st.Scenario().Items)
	for i := len(p.plans); i < items; i++ {
		p.plans = append(p.plans, nil)
		p.fresh = append(p.fresh, false)
		p.dead = append(p.dead, false)
		p.live = append(p.live, model.ItemID(i))
		p.candGroups = append(p.candGroups, nil)
		p.candValid = append(p.candValid, false)
		p.openCache = append(p.openCache, nil)
		p.openValid = append(p.openValid, false)
	}
	for v := range p.touch {
		p.touch[v] = p.touch[v].grow(items)
	}
	p.capBlocked = p.capBlocked.grow(items)
}

// advanceFloor moves the planning floor to at and drops every cached
// forest the advance could reshape: forests that planned a hop starting
// before the new floor, and cap-blocked forests (a failed capacity check
// can flip to success at a later floor because the hold interval shrinks —
// see dijkstra.Plan.CapBlocked; the cap-blocked items no floor can help
// were retired by buildItemCands and hold no forest). Everything else is
// exactly what a fresh computation would produce (see
// dijkstra.Plan.EarliestHopStart), so it carries across the epoch boundary
// and its item skips a Dijkstra rerun.
func (p *planner) advanceFloor(at simtime.Instant) {
	if at == p.st.Floor() {
		return
	}
	p.st.SetFloor(at)
	for _, item := range p.live {
		if pl := p.plans[item]; pl != nil && (pl.CapBlocked || pl.EarliestHopStart() < at) {
			p.invalidate(item, obs.ReasonFloor)
		}
	}
}

// plan returns the item's current forest, recomputing it if invalidated.
func (p *planner) plan(item model.ItemID) *dijkstra.Plan {
	if pl := p.plans[item]; pl != nil {
		if p.fresh[item] {
			// Computed by this iteration's prefetch: count it as the
			// Dijkstra run the lazy path would have performed here.
			p.fresh[item] = false
			p.countRun(item)
		} else {
			p.stats.CacheHits++
			p.mCacheHits.Inc()
			if p.tr.Enabled() {
				p.tr.Emit(obs.Event{Kind: obs.EvForestCacheHit, Item: int(item)})
			}
		}
		return pl
	}
	span := p.replanTimer.Start()
	pl := p.scratch.ComputeTrimmed(p.st, item, p.takePlan())
	span.Stop()
	p.plans[item] = pl
	p.subscribe(item, pl, true)
	p.countRun(item)
	return pl
}

// subscribe adds (on) or removes (!on) the item at every touch entry its
// forest pl names: the machine each kept hop enters (and, with serialized
// transfers, the one it leaves), each CapFailed machine, and capBlocked
// when the forest is cap-blocked.
func (p *planner) subscribe(item model.ItemID, pl *dijkstra.Plan, on bool) {
	serial := p.st.SerialTransfers()
	for _, v := range pl.Kept {
		p.touch[v].put(item, on)
		if serial {
			p.touch[pl.Pred[v]].put(item, on)
		}
	}
	for _, v := range pl.CapFailed {
		p.touch[v].put(item, on)
	}
	if pl.CapBlocked {
		p.capBlocked.put(item, on)
	}
}

// itemSet is a set of items, one bit per item ID.
type itemSet []uint64

// grow returns s extended to hold items [0, n).
func (s itemSet) grow(n int) itemSet {
	for len(s)*64 < n {
		s = append(s, 0)
	}
	return s
}

// put adds (on) or removes (!on) item.
func (s itemSet) put(item model.ItemID, on bool) {
	if on {
		s[item/64] |= 1 << (item % 64)
	} else {
		s[item/64] &^= 1 << (item % 64)
	}
}

// countRun charges one shortest-path computation for the item to the stats,
// the registry and the trace, which must agree run for run.
func (p *planner) countRun(item model.ItemID) {
	p.stats.DijkstraRuns++
	p.mDijkstra.Inc()
	if p.tr.Enabled() {
		p.tr.Emit(obs.Event{Kind: obs.EvForestComputed, Item: int(item)})
	}
}

// boundAdmits reports whether any open request of the item is still within
// reach of some future epoch: whether dijkstra's optimistic bound forest,
// which no real forest this planner will ever compute can beat, arrives at
// one of them by its deadline. It costs one Dijkstra run, counted as one.
func (p *planner) boundAdmits(item model.ItemID, open []int) bool {
	span := p.replanTimer.Start()
	pl := p.scratch.ComputeBound(p.st, item, p.takePlan())
	span.Stop()
	p.countRun(item)
	it := p.st.Scenario().Item(item)
	admits := false
	for _, k := range open {
		rq := &it.Requests[k]
		if !pl.Arrival[rq.Machine].After(rq.Deadline) {
			admits = true
			break
		}
	}
	p.freePlans = append(p.freePlans, pl)
	return admits
}

// prefetch recomputes every invalidated forest the coming candidates pass
// will need, on the caller's goroutine and under a single phase-timer span
// instead of one time.Now pair per forest. A lone recompute is left to
// plan(). The forests and their compute order are exactly the lazy
// candidates pass's (no commit happens between prefetch and use), and Stats
// are path-independent because prefetched forests are charged to
// DijkstraRuns at first use via the fresh flags, exactly where the lazy
// path would have computed them.
func (p *planner) prefetch() {
	queue := p.queue[:0]
	for _, item := range p.live {
		if p.dead[item] || p.plans[item] != nil {
			continue
		}
		if len(p.openRequests(item)) == 0 {
			// Exactly the dead-marking the candidates pass would do before
			// computing this item's forest.
			p.markDead(item, obs.ReasonNoOpenRequests)
			continue
		}
		queue = append(queue, item)
	}
	p.queue = queue
	if len(queue) < 2 {
		return
	}
	span := p.replanTimer.Start()
	for _, item := range queue {
		p.plans[item] = p.scratch.ComputeTrimmed(p.st, item, p.takePlan())
		p.subscribe(item, p.plans[item], true)
		p.fresh[item] = true
	}
	span.Stop()
}

// openRequests returns the indices of the item's requests that are neither
// satisfied nor closed by a (possibly late) copy at the destination,
// served from the per-item cache when the item's own satisfaction state
// has not moved since the last build. The returned slice is planner-owned,
// valid until the item's next ReasonOwner invalidation.
func (p *planner) openRequests(item model.ItemID) []int {
	if p.openValid[item] {
		return p.openCache[item]
	}
	it := p.st.Scenario().Item(item)
	open := p.openCache[item][:0]
	for k, rq := range it.Requests {
		if p.st.IsSatisfied(model.RequestID{Item: item, Index: k}) {
			continue
		}
		if p.st.Holds(item, rq.Machine) {
			continue // a copy arrived after the deadline; nothing more to do
		}
		open = append(open, k)
	}
	p.openCache[item] = open
	p.openValid[item] = true
	return open
}

// candidates builds every valid next communication step: for each live
// item, the first hops of its forest toward its satisfiable open requests,
// grouped by next machine (the paper's Drq[i, r]), in ascending item order.
// The returned slice is planner-owned scratch, valid until the next call.
// The heuristic loop does not need the list and calls refresh directly.
func (p *planner) candidates() []candidate {
	p.refresh()
	out := p.cands[:0]
	for _, item := range p.live {
		if !p.dead[item] {
			out = append(out, p.candGroups[item]...)
		}
	}
	p.cands = out
	return out
}

// refresh is the candidates pass: it brings every live item's candidate
// groups up to date, marking items that end up with no satisfiable
// destination dead, and returns how many groups there are and the first
// of them in selection order (candidate.before), nil when there are none.
// It picks in place: the groups stay in their per-item cache slots.
func (p *planner) refresh() (n int, best *candidate) {
	p.prefetch()
	live := p.live
	w := 0
	for _, item := range live {
		if p.dead[item] {
			continue // compacted out of the live list for good
		}
		live[w] = item
		w++
		if p.candValid[item] {
			// Served from the candidate cache: the forest reuse this
			// replaces is counted exactly where the uncached pass's
			// plan() lookup would have counted it.
			p.stats.CacheHits++
			p.mCacheHits.Inc()
			if p.tr.Enabled() {
				p.tr.Emit(obs.Event{Kind: obs.EvForestCacheHit, Item: int(item)})
			}
		} else {
			p.buildItemCands(item)
		}
		groups := p.candGroups[item]
		n += len(groups)
		for g := range groups {
			if best == nil || groups[g].before(best) {
				best = &groups[g]
			}
		}
	}
	p.live = live[:w]
	return n, best
}

// buildItemCands rebuilds one item's candidate groups into its cache slot
// (recycling the slot's previous group and dest backing arrays), costs each
// group once, and marks the cache valid, or marks the item dead when no
// open request remains satisfiable now or at any later floor.
func (p *planner) buildItemCands(item model.ItemID) {
	groups := p.candGroups[item][:0]
	defer func() { p.candGroups[item] = groups }()
	open := p.openRequests(item)
	if len(open) == 0 {
		p.markDead(item, obs.ReasonNoOpenRequests)
		return
	}
	pl := p.plan(item)
	it := p.st.Scenario().Item(item)
	for _, k := range open {
		rq := &it.Requests[k]
		at := pl.Arrival[rq.Machine]
		if at == simtime.Never || at.After(rq.Deadline) {
			continue // Sat = 0: no resources for this request (§4.8)
		}
		hop, ok := pl.FirstHopTo(rq.Machine)
		if !ok {
			continue
		}
		d := destInfo{
			req:      model.RequestID{Item: item, Index: k},
			machine:  rq.Machine,
			weight:   p.cfg.Weights.Of(rq.Priority),
			slackSec: rq.Deadline.Sub(at).Seconds(),
		}
		// An item has a handful of groups, so a scan finds the next
		// machine's group faster than a map would.
		idx := slices.IndexFunc(groups, func(c candidate) bool { return c.hop.To == hop.To })
		if idx < 0 {
			idx = len(groups)
			groups = appendCandidate(groups, item, hop)
		}
		groups[idx].dests = append(groups[idx].dests, d)
	}
	if len(groups) == 0 {
		// No satisfiable destination now means never: the item's own
		// arrivals improve only when it is scheduled, which requires a
		// candidate, and other commits only consume resources. The one
		// exception is a cap-blocked forest — a later planning floor
		// shortens hold intervals, so a destination unreachable for
		// lack of storage today can open up at a future epoch. The
		// optimistic bound decides which of those can: an item it
		// cannot deliver in time is as dead as the rest, and the few it
		// can stay live (with a cached empty group) and are rebuilt
		// when the floor advance invalidates the forest.
		if !pl.CapBlocked || !p.boundAdmits(item, open) {
			p.markDead(item, obs.ReasonUnsatisfiable)
			return
		}
	}
	for g := range groups {
		groups[g].score, groups[g].bestDest = groups[g].cost(p.cfg)
	}
	p.mCostEvals.Add(int64(len(groups)))
	p.candValid[item] = true
}

// appendCandidate grows the candidate scratch by one slot, recycling the
// slot's previous dests backing array when the capacity allows.
func appendCandidate(out []candidate, item model.ItemID, hop dijkstra.Hop) []candidate {
	n := len(out)
	if n < cap(out) {
		out = out[:n+1]
		out[n].item = item
		out[n].hop = hop
		out[n].dests = out[n].dests[:0]
		return out
	}
	return append(out, candidate{item: item, hop: hop})
}

// commit books one transfer and maintains the plan cache invariant.
func (p *planner) commit(item model.ItemID, link model.LinkID, start simtime.Instant) error {
	tr, err := p.st.Commit(item, link, start)
	if err != nil {
		return err
	}
	p.stats.Commits++
	p.mCommits.Inc()
	if p.obsOn {
		p.observeCommit(item, tr)
	}
	p.invalidate(item, obs.ReasonOwner) // gained a holder; labels can improve
	if p.paranoid {
		for i := range p.plans {
			p.invalidate(model.ItemID(i), obs.ReasonParanoid)
		}
		return nil
	}
	p.dropConflicts(tr)
	return nil
}

// dropConflicts invalidates every cached forest planConflicts says the
// committed transfer can have changed. It asks only about the forests the
// touch index names, in ascending item order. Unless transfers are
// serialized, every rule needs the forest to touch tr.To: a hop on tr.Link
// enters tr.To, the capacity rule needs a kept hop into tr.To, and the
// cap-blocked rule needs tr.To in CapFailed. With serialized transfers a
// planned hop may also clash with tr.From's send port, and every
// cap-blocked forest goes. Items below the lowest live one hold no forest,
// so the walk starts there (the committed item is live, so there is one).
func (p *planner) dropConflicts(tr state.Transfer) {
	trSpan := simtime.Span(tr.Start, tr.Duration)
	serial := p.st.SerialTransfers()
	to, from := p.touch[tr.To], p.touch[tr.From]
	for w := int(p.live[0]) / 64; w < len(to); w++ {
		word := to[w]
		if serial {
			word |= from[w] | p.capBlocked[w]
		}
		for ; word != 0; word &= word - 1 {
			i := model.ItemID(w*64 + bits.TrailingZeros64(word))
			if p.planConflicts(p.plans[i], tr, trSpan, serial) {
				p.invalidate(i, obs.ReasonConflict)
				p.stats.Invalidations++
				p.mInvalidations.Inc()
			}
		}
	}
}

// observeCommit emits the transfer-booked event plus one request-satisfied
// event per deadline the arrival meets. A machine receives an item at most
// once, so any request at tr.To with deadline ≥ arrival was satisfied by
// exactly this transfer.
func (p *planner) observeCommit(item model.ItemID, tr state.Transfer) {
	if p.tr.Enabled() {
		p.tr.Emit(obs.Event{
			Kind: obs.EvTransferBooked, Item: int(item), Link: int(tr.Link),
			Machine: int(tr.To), At: int64(tr.Start), Value: tr.Duration.Seconds(),
		})
	}
	it := p.st.Scenario().Item(item)
	for k := range it.Requests {
		rq := &it.Requests[k]
		if rq.Machine != tr.To || tr.Arrival.After(rq.Deadline) {
			continue
		}
		slack := rq.Deadline.Sub(tr.Arrival).Seconds()
		p.mSatisfied.Inc()
		p.hSlack.Observe(slack)
		if p.tr.Enabled() {
			p.tr.Emit(obs.Event{
				Kind: obs.EvRequestSatisfied, Item: int(item), Req: k,
				Machine: int(tr.To), At: int64(tr.Arrival), Value: slack,
			})
		}
	}
}

// planConflicts reports whether a committed transfer can have changed the
// cached forest (the three rules of the cache invariant on planner): it
// occupies link time one of the forest's hops was counting on, the
// capacity it consumed at the receiving machine no longer backs the
// forest's planned copy there, or it may have delayed a relaxation that
// failed its capacity check.
// trSpan and serial are loop invariants of commit's invalidation sweep,
// hoisted to the caller.
func (p *planner) planConflicts(pl *dijkstra.Plan, tr state.Transfer, trSpan simtime.Interval, serial bool) bool {
	if pl.CapBlocked && (serial || slices.Contains(pl.CapFailed, tr.To)) {
		return true
	}
	to := tr.To
	if serial {
		// The committed transfer occupies tr.From's send port and tr.To's
		// receive port; a planned hop sharing either machine in an
		// overlapping span may no longer fit. A hop on tr.Link enters
		// tr.To, so this covers the link too. (Slightly conservative: send
		// vs receive port distinctions are folded into a machine match;
		// over-invalidation only costs a recompute.)
		for _, v := range pl.Kept {
			from := pl.Pred[v]
			if (from == tr.From || from == to || v == tr.From || v == to) &&
				simtime.Span(pl.Start[v], pl.Dur[v]).Overlaps(trSpan) {
				return true
			}
		}
	} else if pl.Via[to] == tr.Link && simtime.Span(pl.Start[to], pl.Dur[to]).Overlaps(trSpan) {
		// A hop on tr.Link enters tr.To, and a forest plans at most one
		// hop into a machine.
		return true
	}
	if pl.Arrival[to] != simtime.Never && pl.Pred[to] != dijkstra.NoMachine {
		size := p.st.Scenario().Item(pl.Item).SizeBytes
		hold := p.st.HoldInterval(pl.Item, to, pl.Arrival[to])
		if !p.st.Capacity(to).CanReserve(size, hold) {
			return true
		}
	}
	return false
}

// commitHop commits a single hop (the partial path heuristic's step).
func (p *planner) commitHop(item model.ItemID, hop dijkstra.Hop) error {
	return p.commit(item, hop.Link, hop.Start)
}

// commitPath commits every hop from the item's forest root to one
// destination (the full path/one destination heuristic's step). The hop
// list lives in planner scratch: hop values are copied out of the forest
// before the first commit invalidates it.
func (p *planner) commitPath(item model.ItemID, dest model.MachineID) error {
	hops, ok := p.plan(item).AppendPathTo(p.hops[:0], dest)
	p.hops = hops
	if !ok {
		return fmt.Errorf("core: no path for item %d to machine %d", item, dest)
	}
	for _, h := range hops {
		if err := p.commit(item, h.Link, h.Start); err != nil {
			return err
		}
	}
	return nil
}

// commitTree commits the union of the forest paths to every destination of
// the candidate (the full path/all destinations heuristic's step).
func (p *planner) commitTree(item model.ItemID, c *candidate) error {
	hops, err := p.treeHops(item, c)
	if err != nil {
		return err
	}
	for _, h := range hops {
		if err := p.commit(item, h.Link, h.Start); err != nil {
			if p.st.SerialTransfers() {
				// The forest's branches are individually feasible but may
				// jointly contend for one machine's send or receive port.
				// The shared first hop always commits (the state is
				// unchanged since planning), so progress is guaranteed;
				// a conflicting branch is simply deferred — its
				// destination stays open and is re-planned from the
				// freshly staged copies on a later iteration.
				continue
			}
			return err
		}
	}
	return nil
}

// treeHops returns the union of the forest paths to every destination of
// the candidate in commit order. The union is a tree — each machine has one
// incoming planned hop — so hops are deduplicated by receiving machine and
// sorted by start. The list lives in planner scratch: hop values are copied
// out of the forest before the first commit invalidates it.
func (p *planner) treeHops(item model.ItemID, c *candidate) ([]dijkstra.Hop, error) {
	pl := p.plan(item)
	m := len(pl.Arrival)
	if cap(p.seen) < m {
		p.seen = make([]bool, m)
	}
	seen := p.seen[:m]
	for i := range seen {
		seen[i] = false
	}
	hops := p.hops[:0]
	path := p.pathBuf
	for _, d := range c.dests {
		var ok bool
		path, ok = pl.AppendPathTo(path[:0], d.machine)
		if !ok {
			p.hops, p.pathBuf = hops, path
			return nil, fmt.Errorf("core: no path for item %d to machine %d", item, d.machine)
		}
		for _, h := range path {
			if !seen[h.To] {
				seen[h.To] = true
				hops = append(hops, h)
			}
		}
	}
	p.hops, p.pathBuf = hops, path
	// Parents always start (strictly) before their children finish, and a
	// hop starts no earlier than its parent's arrival, so start order is a
	// valid commit order.
	sortHops(hops)
	return hops, nil
}

func sortHops(hops []dijkstra.Hop) {
	// Insertion sort: trees are small (bounded by machine count).
	for i := 1; i < len(hops); i++ {
		for j := i; j > 0 && less(hops[j], hops[j-1]); j-- {
			hops[j], hops[j-1] = hops[j-1], hops[j]
		}
	}
}

func less(a, b dijkstra.Hop) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.To < b.To
}
