package dynamic

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"datastaging/internal/gen"
	"datastaging/internal/model"
	"datastaging/internal/scenario"
	"datastaging/internal/simtime"
	"datastaging/internal/validator"
)

// The differential harness: the incremental engine and the full-replay
// oracle walk the same randomized trace of arrivals, scenario growth, link
// failures, and speculative epochs that are kept or rolled back, and must
// agree bit-for-bit on transfers, satisfied requests, weighted objective,
// and aborts after every epoch. FuzzEngineIncrementalEquivalence
// (fuzz_test.go) drives the same harness from fuzzed inputs.

// diffOp is one epoch of a randomized trace.
type diffOp struct {
	at      simtime.Instant
	release []model.ItemID
	fail    []model.LinkID
	// grow, when non-nil, is an append-only scenario extension applied
	// before the epoch (the online service's arrival mechanism).
	grow *scenario.Scenario
	// rollback, when non-nil, runs a speculative epoch shaped like the
	// admission service's offer abort: Checkpoint, Release one
	// still-withheld item, ReplanAt; then either keep the result or undo
	// it (Withhold the item again, Rollback, replan).
	rollback *rollbackOp
}

type rollbackOp struct {
	// pick selects the released item: an index, modulo their count, into
	// the items still withheld when the op runs (ascending id order).
	pick int
	keep bool
}

// genDiffTrace derives a base scenario (a prefix of full's items) and a
// time-sorted op trace from the rng. Items beyond the base arrive through
// scenario growth; a random subset of base items is withheld at time zero
// and released over time (the simulator's arrival mechanism).
func genDiffTrace(r *rand.Rand, full *scenario.Scenario) (*scenario.Scenario, []model.ItemID, []diffOp) {
	n := len(full.Items)
	g := 1 + n/2 + r.Intn(n/2) // items known before the first growth step
	if g > n {
		g = n
	}
	base := *full
	base.Items = full.Items[:g:g]

	var withheld []model.ItemID
	for i := 0; i < g; i++ {
		if r.Intn(3) == 0 {
			withheld = append(withheld, model.ItemID(i))
		}
	}

	at := simtime.Instant(0)
	step := func() simtime.Instant {
		at = at.Add(time.Duration(1+r.Intn(1800)) * time.Second)
		return at
	}
	var ops []diffOp

	// Releases of the withheld base items, in random group sizes.
	for i := 0; i < len(withheld); {
		k := 1 + r.Intn(3)
		if i+k > len(withheld) {
			k = len(withheld) - i
		}
		ops = append(ops, diffOp{at: step(), release: withheld[i : i+k]})
		i += k
	}
	// One or two growth steps extending toward the full item list.
	if g < n {
		mid := g + (n-g)/2
		if mid > g {
			sc1 := *full
			sc1.Items = full.Items[:mid:mid]
			ops = append(ops, diffOp{at: step(), grow: &sc1})
		}
		ops = append(ops, diffOp{at: step(), grow: full})
	}
	// Up to two link failures.
	for i, k := 0, r.Intn(3); i < k; i++ {
		ops = append(ops, diffOp{at: step(),
			fail: []model.LinkID{model.LinkID(r.Intn(len(full.Network.Links)))}})
	}
	// One to three speculative epochs whenever something is withheld,
	// mostly rolled back: an abort is the case where the incremental
	// engine must notice that the past changed.
	if len(withheld) > 0 {
		for i, k := 0, 1+r.Intn(3); i < k; i++ {
			ops = append(ops, diffOp{at: step(), rollback: &rollbackOp{
				pick: r.Intn(len(withheld)), keep: r.Intn(4) == 0,
			}})
		}
	}

	// step() already made times strictly increasing; shuffle only the
	// payloads so op kinds interleave across the timeline.
	r.Shuffle(len(ops), func(i, j int) { ops[i].at, ops[j].at = ops[j].at, ops[i].at })
	for i := 1; i < len(ops); i++ {
		for j := i; j > 0 && ops[j].at < ops[j-1].at; j-- {
			ops[j], ops[j-1] = ops[j-1], ops[j]
		}
	}
	// Growth steps must stay in extension order; re-assign the grow
	// payloads along the timeline smallest-first.
	var grows []*scenario.Scenario
	for i := range ops {
		if ops[i].grow != nil {
			grows = append(grows, ops[i].grow)
		}
	}
	sort.Slice(grows, func(a, b int) bool { return len(grows[a].Items) < len(grows[b].Items) })
	gi := 0
	for i := range ops {
		if ops[i].grow != nil {
			ops[i].grow = grows[gi]
			gi++
		}
	}
	return &base, withheld, ops
}

// applyOp drives one engine through one epoch of the trace. It reports
// whether the op rolled back a speculative epoch that had committed at
// least one transfer.
func applyOp(t *testing.T, eng *Engine, op diffOp) (undid bool) {
	t.Helper()
	if op.grow != nil {
		if err := eng.SetScenario(op.grow); err != nil {
			t.Fatalf("SetScenario: %v", err)
		}
	}
	if len(op.release) > 0 {
		eng.Release(op.release...)
	}
	for _, l := range op.fail {
		eng.FailLink(l, op.at)
	}
	if op.rollback != nil {
		if item, ok := pickWithheld(eng, op.rollback.pick); ok {
			cp := eng.Checkpoint()
			eng.Release(item)
			if _, err := eng.ReplanAt(op.at); err != nil {
				t.Fatalf("speculative replan at %v: %v", op.at, err)
			}
			if op.rollback.keep {
				return false // speculation already landed
			}
			undid = len(eng.Transfers()) > len(cp.history)
			eng.Withhold(item)
			eng.Rollback(cp)
		}
	}
	if _, err := eng.ReplanAt(op.at); err != nil {
		t.Fatalf("replan at %v: %v", op.at, err)
	}
	return undid
}

// pickWithheld returns the pick-th (modulo) still-withheld item in
// ascending id order; false when nothing is withheld any more.
func pickWithheld(eng *Engine, pick int) (model.ItemID, bool) {
	if len(eng.withheld) == 0 {
		return 0, false
	}
	items := make([]model.ItemID, 0, len(eng.withheld))
	for it := range eng.withheld {
		items = append(items, it)
	}
	sort.Slice(items, func(a, b int) bool { return items[a] < items[b] })
	return items[pick%len(items)], true
}

// weightedObjective is the paper's -E[S] over an engine's satisfied set.
func weightedObjective(sc *scenario.Scenario, sat map[model.RequestID]simtime.Instant, w model.Weights) float64 {
	var sum float64
	for id := range sat {
		sum += w.Of(sc.Request(id).Priority)
	}
	return sum
}

// compareEngines asserts the two engines are in bit-identical scheduling
// states.
func compareEngines(t *testing.T, label string, inc, oracle *Engine) {
	t.Helper()
	it, ot := inc.Transfers(), oracle.Transfers()
	if len(it) != len(ot) {
		t.Fatalf("%s: %d transfers incremental vs %d full-replay", label, len(it), len(ot))
	}
	for i := range it {
		if it[i] != ot[i] {
			t.Fatalf("%s: transfer %d differs:\n  incremental %+v\n  full-replay %+v", label, i, it[i], ot[i])
		}
	}
	is, os := inc.Satisfied(), oracle.Satisfied()
	if len(is) != len(os) {
		t.Fatalf("%s: %d satisfied incremental vs %d full-replay", label, len(is), len(os))
	}
	for id, at := range os {
		if got, ok := is[id]; !ok || got != at {
			t.Fatalf("%s: request %v satisfied at %v in full-replay, %v (%v) in incremental", label, id, at, got, ok)
		}
	}
	ia, oa := inc.Aborted(), oracle.Aborted()
	if len(ia) != len(oa) {
		t.Fatalf("%s: %d aborted incremental vs %d full-replay", label, len(ia), len(oa))
	}
	for i := range ia {
		if ia[i] != oa[i] {
			t.Fatalf("%s: aborted %d differs", label, i)
		}
	}
	sc, w := inc.Scenario(), model.Weights1x10x100
	if iv, ov := weightedObjective(sc, is, w), weightedObjective(sc, os, w); iv != ov {
		t.Fatalf("%s: weighted objective %v incremental vs %v full-replay", label, iv, ov)
	}
}

// runDifferential walks one seeded trace through both engines and compares
// after every epoch; the final schedule must also be validator-clean. It
// reports whether the trace exercised the incremental path at all, and
// whether it rolled back a speculative epoch that had committed transfers
// (a degenerate trace may do neither; deterministic callers assert both,
// the fuzzer cannot).
func runDifferential(t *testing.T, scSeed, traceSeed int64) (sawIncremental, sawUndo bool) {
	t.Helper()
	r := rand.New(rand.NewSource(traceSeed))
	full := gen.MustGenerate(func() gen.Params {
		p := gen.Default()
		p.Machines = gen.IntRange{Min: 6, Max: 8}
		p.RequestsPerMachine = gen.IntRange{Min: 4, Max: 8}
		return p
	}(), scSeed)
	base, withheld, ops := genDiffTrace(r, full)

	inc, err := NewEngine(base, cfgC4())
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewEngine(base, cfgC4())
	if err != nil {
		t.Fatal(err)
	}
	oracle.SetFullReplay(true)

	inc.Withhold(withheld...)
	oracle.Withhold(withheld...)
	if _, err := inc.ReplanAt(0); err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.ReplanAt(0); err != nil {
		t.Fatal(err)
	}
	compareEngines(t, "epoch 0", inc, oracle)
	if inc.LastEpoch().Full != true {
		t.Error("first epoch must take the full path")
	}

	for i, op := range ops {
		if applyOp(t, inc, op) {
			sawUndo = true
		}
		applyOp(t, oracle, op)
		compareEngines(t, op.at.String(), inc, oracle)
		if le := inc.LastEpoch(); le.At != op.at {
			t.Fatalf("op %d: LastEpoch.At = %v, want %v", i, le.At, op.at)
		} else if !le.Full {
			sawIncremental = true
			if le.ReplayedTransfers != 0 {
				t.Fatalf("op %d: incremental epoch replayed %d transfers", i, le.ReplayedTransfers)
			}
		}
		if !oracle.LastEpoch().Full {
			t.Fatalf("op %d: forced-full oracle took the incremental path", i)
		}
	}
	if err := validator.Validate(inc.Scenario(), inc.Transfers()); err != nil {
		t.Fatalf("incremental schedule invalid: %v", err)
	}
	return sawIncremental, sawUndo
}

func TestEngineIncrementalMatchesFullReplay(t *testing.T) {
	// Some seed must roll back a speculative epoch that committed
	// transfers, or a Rollback that failed to force a replay would go
	// unnoticed. Cleanup runs after the parallel subtests finish.
	var sawUndo atomic.Bool
	t.Cleanup(func() {
		if !sawUndo.Load() {
			t.Error("no seed rolled back a speculative epoch that committed transfers")
		}
	})
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			inc, undo := runDifferential(t, seed, seed*1000+7)
			if !inc {
				t.Error("trace never exercised the incremental path")
			}
			if undo {
				sawUndo.Store(true)
			}
		})
	}
}

// TestEngineIncrementalPathTaken pins the dispatch rules: ordinary epochs
// after the first are incremental; link failure and Rollback each force
// exactly the next epoch onto the full-replay path.
func TestEngineIncrementalPathTaken(t *testing.T) {
	sc := gen.MustGenerate(func() gen.Params {
		p := gen.Default()
		p.Machines = gen.IntRange{Min: 6, Max: 6}
		p.RequestsPerMachine = gen.IntRange{Min: 6, Max: 6}
		return p
	}(), 3)
	eng, err := NewEngine(sc, cfgC4())
	if err != nil {
		t.Fatal(err)
	}
	mustReplan := func(at simtime.Instant, wantFull bool) {
		t.Helper()
		if _, err := eng.ReplanAt(at); err != nil {
			t.Fatal(err)
		}
		if got := eng.LastEpoch().Full; got != wantFull {
			t.Fatalf("epoch at %v: Full = %v, want %v", at, got, wantFull)
		}
	}
	mustReplan(0, true)                        // first epoch builds the world
	mustReplan(simtime.At(time.Minute), false) // plain floor advance
	mustReplan(simtime.At(time.Minute), false) // same-instant re-epoch

	eng.FailLink(0, simtime.At(2*time.Minute))
	mustReplan(simtime.At(2*time.Minute), true) // failure rewrote the past
	mustReplan(simtime.At(3*time.Minute), false)

	cp := eng.Checkpoint()
	mustReplan(simtime.At(4*time.Minute), false) // a checkpoint alone stays fast
	eng.Rollback(cp)
	mustReplan(simtime.At(4*time.Minute), true) // rollback forces replay
	mustReplan(simtime.At(5*time.Minute), false)

	eng.SetFullReplay(true)
	mustReplan(simtime.At(6*time.Minute), true)
	eng.SetFullReplay(false)
	mustReplan(simtime.At(7*time.Minute), false)
}
