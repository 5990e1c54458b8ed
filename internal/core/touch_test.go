package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"datastaging/internal/dijkstra"
	"datastaging/internal/gen"
	"datastaging/internal/model"
	"datastaging/internal/obs"
	"datastaging/internal/scenario"
	"datastaging/internal/simtime"
	"datastaging/internal/state"
	"datastaging/internal/testnet"
)

// conflictLog records, in emission order, the items whose forest a commit
// dropped for a conflict.
type conflictLog struct{ items []model.ItemID }

func (l *conflictLog) Emit(e obs.Event) {
	if e.Kind == obs.EvForestInvalidated && e.Reason == obs.ReasonConflict {
		l.items = append(l.items, model.ItemID(e.Item))
	}
}

// touchChecker drives a planner's heuristic loop one commit at a time and
// holds every commit against sweepConflicts, the sweep over every cached
// forest that the touch index replaced.
type touchChecker struct {
	t       *testing.T
	name    string
	p       *planner
	log     *conflictLog
	commits int
	dropped int
}

func newTouchChecker(t *testing.T, name string, st *state.State, cfg Config) *touchChecker {
	log := &conflictLog{}
	cfg.Obs = obs.NewTraced(log)
	return &touchChecker{t: t, name: name, p: plannerOn(st, cfg), log: log}
}

// run is planner.run with each heuristic's step split into its single-hop
// commits, so that each one can be checked.
func (c *touchChecker) run() {
	p := c.p
	for {
		_, cand := p.refresh()
		if cand == nil {
			return
		}
		item := cand.item
		var hops []dijkstra.Hop
		switch p.cfg.Heuristic {
		case PartialPath:
			hops = []dijkstra.Hop{cand.hop}
		case FullPathOneDest:
			hops, _ = p.plan(item).AppendPathTo(nil, cand.dests[cand.bestDest].machine)
		case FullPathAllDests:
			tree, err := p.treeHops(item, cand)
			if err != nil {
				c.t.Fatalf("%s: %v", c.name, err)
			}
			hops = slices.Clone(tree)
		}
		for _, h := range hops {
			// commitTree defers a branch that lost its port to a sibling.
			c.commit(item, h, p.cfg.Heuristic == FullPathAllDests && p.st.SerialTransfers())
		}
		p.stats.Iterations++
	}
}

// commit commits one hop and requires that it dropped, in ascending order,
// exactly the forests the sweep drops, and that the touch index still names
// exactly the cached forests.
func (c *touchChecker) commit(item model.ItemID, h dijkstra.Hop, mayFail bool) {
	t, p := c.t, c.p
	cached := slices.Clone(p.plans)
	c.log.items = c.log.items[:0]
	invalidations := p.stats.Invalidations
	if err := p.commit(item, h.Link, h.Start); err != nil {
		if mayFail {
			return
		}
		t.Fatalf("%s: commit %d: %v", c.name, c.commits, err)
	}
	trs := p.st.Transfers()
	tr := trs[len(trs)-1]
	want := p.sweepConflicts(cached, item, tr)
	if !slices.Equal(c.log.items, want) {
		t.Fatalf("%s: commit %d (%+v) dropped %v, the sweep drops %v", c.name, c.commits, tr, c.log.items, want)
	}
	if got := p.stats.Invalidations - invalidations; got != len(want) {
		t.Fatalf("%s: commit %d counted %d invalidations, the sweep %d", c.name, c.commits, got, len(want))
	}
	for i, pl := range cached {
		if pl == nil {
			continue
		}
		if kept, wantKept := p.plans[i] == pl, model.ItemID(i) != item && !slices.Contains(want, model.ItemID(i)); kept != wantKept {
			t.Fatalf("%s: commit %d: item %d's forest kept %v, want %v", c.name, c.commits, i, kept, wantKept)
		}
	}
	c.commits++
	c.dropped += len(want)
	c.checkIndex()
}

// checkIndex requires the touch index to be exactly what the cached forests
// subscribe, re-derived from each forest's labels rather than Plan.Kept.
func (c *touchChecker) checkIndex() {
	p := c.p
	serial := p.st.SerialTransfers()
	touch := make([]itemSet, len(p.touch))
	for v := range touch {
		touch[v] = itemSet(nil).grow(len(p.plans))
	}
	capBlocked := itemSet(nil).grow(len(p.plans))
	for i, pl := range p.plans {
		if pl == nil {
			continue
		}
		item := model.ItemID(i)
		for v, via := range pl.Via {
			if via == dijkstra.NoLink {
				continue
			}
			touch[v].put(item, true)
			if serial {
				touch[pl.Pred[v]].put(item, true)
			}
		}
		for _, v := range pl.CapFailed {
			touch[v].put(item, true)
		}
		if pl.CapBlocked {
			capBlocked.put(item, true)
		}
	}
	for v := range touch {
		if !slices.Equal(p.touch[v], touch[v]) {
			c.t.Fatalf("%s: after commit %d touch[%d] is %b, the cached forests subscribe %b",
				c.name, c.commits, v, p.touch[v], touch[v])
		}
	}
	if !slices.Equal(p.capBlocked, capBlocked) {
		c.t.Fatalf("%s: after commit %d capBlocked is %b, the cached forests subscribe %b",
			c.name, c.commits, p.capBlocked, capBlocked)
	}
}

// sameRun requires the checked loop to have planned exactly what the
// production path plans: same transfers, same work.
func (c *touchChecker) sameRun(want *Result) {
	c.t.Helper()
	got := c.p.result(c.p.cfg, time.Now())
	assertSameSchedule(c.t, c.name, 0, Pair{c.p.cfg.Heuristic, c.p.cfg.Criterion}, got, want)
	g, w := got.Stats, want.Stats
	g.ReplanWall, w.ReplanWall = 0, 0
	if g != w {
		c.t.Fatalf("%s: checked loop did %+v, the production path %+v", c.name, g, w)
	}
}

// TestTouchIndexMatchesSweep pins the touch index: on every commit of every
// heuristic, with and without serialized transfers, the forests a commit
// drops are exactly, and in the same order, the ones the sweep over every
// cached forest drops, and afterwards the index names exactly the cached
// forests. It covers TestPlanCacheMatchesParanoidRerun's scenarios, the
// paper-scale fuzz seeds, a Planner carried across epochs that grow the
// scenario and advance the floor, and the hand-built commit into a
// cap-blocked forest's failed check.
func TestTouchIndexMatchesSweep(t *testing.T) {
	small := gen.Default()
	small.Machines = gen.IntRange{Min: 5, Max: 7}
	small.RequestsPerMachine = gen.IntRange{Min: 5, Max: 10}
	type tc struct {
		name string
		sc   *scenario.Scenario
	}
	var cases []tc
	for seed := int64(1); seed <= 3; seed++ {
		cases = append(cases, tc{fmt.Sprint("small-", seed), testnet.Generate(small, seed)})
	}
	for _, seed := range []int64{1140, 5018, 6000} {
		cases = append(cases, tc{fmt.Sprint("paper-", seed), testnet.Generate(gen.Default(), seed)})
	}
	var commits, dropped int
	for _, c := range cases {
		for _, serial := range []bool{false, true} {
			sc := *c.sc
			sc.SerialTransfers = serial
			for _, h := range []Heuristic{PartialPath, FullPathOneDest, FullPathAllDests} {
				cfg := Config{Heuristic: h, Criterion: C4, EU: EUFromLog10(2), Weights: model.Weights1x10x100}
				name := c.name + "/" + h.String()
				if serial {
					name += "/serial"
				}
				chk := newTouchChecker(t, name, state.New(&sc), cfg)
				chk.run()
				want, err := Schedule(&sc, cfg)
				if err != nil {
					t.Fatal(err)
				}
				chk.sameRun(want)
				commits += chk.commits
				dropped += chk.dropped
			}
		}
	}
	for _, serial := range []bool{false, true} {
		for _, h := range []Heuristic{PartialPath, FullPathOneDest, FullPathAllDests} {
			c, d := checkEpochs(t, h, serial)
			commits += c
			dropped += d
		}
		checkCapFailedRelay(t, serial)
	}
	if dropped == 0 {
		t.Errorf("vacuous: %d commits dropped no forest", commits)
	}
}

// checkCapFailedRelay replays TestCommitIntoCapFailedMachineInvalidates'
// commit through the checker: a cap-blocked forest whose only tie to the
// commit is its failed check at the relay r, so that it has no kept hop at
// either end of the transfer and only the CapFailed subscription, or with
// serialized transfers only the cap-blocked set, names it.
func checkCapFailedRelay(t *testing.T, serial bool) {
	const size, small = 1 << 20, 1e6
	bps := testnet.KBPS(1000)
	dSize := (&model.VirtualLink{BandwidthBPS: bps}).TransferDuration(size)
	dSmall := (&model.VirtualLink{BandwidthBPS: bps}).TransferDuration(small)
	b := testnet.NewBuilder().GC(time.Second)
	a, r, d, w := b.Machine(1<<30), b.Machine(size+small), b.Machine(1<<30), b.Machine(1<<30)
	ar := b.Link(a, r, 0, time.Hour, bps)
	rd := b.Link(r, d, 0, time.Hour, bps)
	aw := b.Link(a, w, dSize, dSize+dSmall, bps)
	src := []model.Source{testnet.Src(a, 0)}
	z := b.Item(size, src, []model.Request{testnet.Req(d, 20*time.Second, model.High)})
	y := b.Item(small, src, []model.Request{testnet.Req(d, time.Hour, model.Low)})
	x := b.Item(size, src, []model.Request{testnet.Req(r, time.Hour, model.High)})
	sc := b.Build("cap-failed-relay")
	sc.SerialTransfers = serial
	st := state.New(sc)
	tz, err := st.Commit(z, ar, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit(z, rd, tz.Arrival); err != nil {
		t.Fatal(err)
	}
	chk := newTouchChecker(t, fmt.Sprint("cap-failed-relay/serial=", serial),
		st, Config{Heuristic: PartialPath, Criterion: C4, EU: EUFromLog10(0), Weights: model.Weights1x10x100})
	if pl := chk.p.plan(x); !pl.CapBlocked || len(pl.Kept) > 0 {
		t.Fatalf("serial %v: x's forest: CapBlocked %v, kept hops %v; want a bare failed check at r", serial, pl.CapBlocked, pl.Kept)
	}
	via := ar
	if serial {
		via = aw
	}
	chk.commit(y, dijkstra.Hop{Link: via, Start: tz.Arrival}, false)
	if chk.dropped != 1 {
		t.Fatalf("serial %v: the commit dropped %d forests, want x's", serial, chk.dropped)
	}
}

// checkEpochs carries one planner across epochs that append a wave of items
// and advance the floor (floor invalidations go through the index too),
// checking every commit, and requires the same result as Planner.Epoch on
// the same sequence.
func checkEpochs(t *testing.T, h Heuristic, serial bool) (commits, dropped int) {
	full := testnet.Generate(gen.Default(), 7)
	full.SerialTransfers = serial
	cfg := Config{Heuristic: h, Criterion: C4, EU: EUFromLog10(2), Weights: model.Weights1x10x100}
	name := "epochs/" + h.String()
	if serial {
		name += "/serial"
	}
	n := len(full.Items)
	waves := []int{n / 3, 2 * n / 3, n}
	prefix := func(k int) *scenario.Scenario {
		sc := *full
		sc.Items = full.Items[:k:k]
		return &sc
	}
	chk := newTouchChecker(t, name, state.New(prefix(waves[0])), cfg)
	pp, err := NewPlannerOn(state.New(prefix(waves[0])), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := chk.p
	for e, k := range waves {
		at := simtime.At(time.Duration(e) * 15 * time.Minute)
		p.st.AdoptScenario(prefix(k))
		pp.p.st.AdoptScenario(prefix(k))
		// Planner.Epoch's preamble, then its loop one commit at a time.
		p.st.GrowItems()
		p.grow()
		p.advanceFloor(at)
		chk.checkIndex()
		chk.run()
		if _, err := pp.Epoch(at); err != nil {
			t.Fatal(err)
		}
	}
	chk.sameRun(pp.p.result(cfg, time.Now()))
	return chk.commits, chk.dropped
}
