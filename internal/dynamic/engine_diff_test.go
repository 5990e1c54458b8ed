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
	"datastaging/internal/testnet"
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
	at simtime.Instant
	// grow, when beyond the items already known, appends full's items up
	// to that count before the epoch — the one arrival mechanism, as in
	// the online service. fresh hands the engine the grown scenario as a
	// new value (SetScenario's verified path) instead of growing the one
	// it holds in place.
	grow  int
	fresh bool
	fail  []model.LinkID
	// rollback, when non-nil, runs a speculative epoch shaped like the
	// admission service's offer abort: Checkpoint, append the next
	// not-yet-arrived items, ReplanAt; then either keep the result or undo
	// it (truncate the scenario, Rollback, replan).
	rollback *rollbackOp
}

type rollbackOp struct {
	// n is how many items the speculative epoch appends (fewer when fewer
	// remain).
	n    int
	keep bool
}

// genDiffTrace derives a base scenario (a prefix of full's items: the
// items known at time zero) and a time-sorted op trace from the rng. The
// rest of full's items arrive over time by scenario growth.
func genDiffTrace(r *rand.Rand, full *scenario.Scenario) (*scenario.Scenario, []diffOp) {
	n := len(full.Items)
	g := 1 + n/3 + r.Intn(n/3+1)
	if g > n {
		g = n
	}
	base := *full
	base.Items = full.Items[:g:g]

	at := simtime.Instant(0)
	step := func() simtime.Instant {
		at = at.Add(time.Duration(1+r.Intn(1800)) * time.Second)
		return at
	}
	var ops []diffOp

	// Arrivals of the remaining items, in random group sizes.
	for k := g; k < n; {
		k += 1 + r.Intn(3)
		if k > n {
			k = n
		}
		ops = append(ops, diffOp{at: step(), grow: k, fresh: r.Intn(4) == 0})
	}
	// Up to two link failures.
	for i, k := 0, r.Intn(3); i < k; i++ {
		ops = append(ops, diffOp{at: step(),
			fail: []model.LinkID{model.LinkID(r.Intn(len(full.Network.Links)))}})
	}
	// One to three speculative epochs whenever something arrives later,
	// mostly rolled back: an abort is the case where the incremental
	// engine must notice that the past changed.
	if g < n {
		for i, k := 0, 1+r.Intn(3); i < k; i++ {
			ops = append(ops, diffOp{at: step(), rollback: &rollbackOp{
				n: 1 + r.Intn(3), keep: r.Intn(4) == 0,
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
	// Arrivals must stay in order; re-assign the growth targets along the
	// timeline smallest-first.
	var grows []int
	for i := range ops {
		if ops[i].grow > 0 {
			grows = append(grows, ops[i].grow)
		}
	}
	sort.Ints(grows)
	gi := 0
	for i := range ops {
		if ops[i].grow > 0 {
			ops[i].grow = grows[gi]
			gi++
		}
	}
	return &base, ops
}

// diffEngine is one engine of the harness with the scenario value it
// holds, which the harness grows and truncates in place.
type diffEngine struct {
	*Engine
	sc   *scenario.Scenario
	full *scenario.Scenario
}

func newDiffEngine(t *testing.T, base, full *scenario.Scenario) *diffEngine {
	t.Helper()
	sc := *base
	eng, err := NewEngine(&sc, cfgC4())
	if err != nil {
		t.Fatal(err)
	}
	return &diffEngine{Engine: eng, sc: &sc, full: full}
}

// applyOp drives one engine through one epoch of the trace. It reports
// whether the op rolled back a speculative epoch that had committed at
// least one transfer.
func applyOp(t *testing.T, d *diffEngine, op diffOp) (undid bool) {
	t.Helper()
	if op.grow > len(d.sc.Items) {
		if op.fresh {
			next := *d.sc
			d.sc = &next
		}
		d.sc.Items = d.full.Items[:op.grow]
		if err := d.SetScenario(d.sc); err != nil {
			t.Fatalf("SetScenario: %v", err)
		}
	}
	for _, l := range op.fail {
		d.FailLink(l, op.at)
	}
	if prev := len(d.sc.Items); op.rollback != nil && prev < len(d.full.Items) {
		cp := d.Checkpoint()
		d.sc.Items = d.full.Items[:min(prev+op.rollback.n, len(d.full.Items))]
		if _, err := d.ReplanAt(op.at); err != nil {
			t.Fatalf("speculative replan at %v: %v", op.at, err)
		}
		if op.rollback.keep {
			return false // speculation already landed
		}
		undid = len(d.Transfers()) > len(cp.history)
		d.sc.Items = d.sc.Items[:prev]
		d.Rollback(cp)
	}
	if _, err := d.ReplanAt(op.at); err != nil {
		t.Fatalf("replan at %v: %v", op.at, err)
	}
	return undid
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
	full := testnet.Generate(func() gen.Params {
		p := gen.Default()
		p.Machines = gen.IntRange{Min: 6, Max: 8}
		p.RequestsPerMachine = gen.IntRange{Min: 4, Max: 8}
		return p
	}(), scSeed)
	base, ops := genDiffTrace(r, full)

	inc := newDiffEngine(t, base, full)
	oracle := newDiffEngine(t, base, full)
	oracle.SetFullReplay(true)

	if _, err := inc.ReplanAt(0); err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.ReplanAt(0); err != nil {
		t.Fatal(err)
	}
	compareEngines(t, "epoch 0", inc.Engine, oracle.Engine)
	if inc.LastEpoch().Full != true {
		t.Error("first epoch must take the full path")
	}

	for i, op := range ops {
		if applyOp(t, inc, op) {
			sawUndo = true
		}
		applyOp(t, oracle, op)
		compareEngines(t, op.at.String(), inc.Engine, oracle.Engine)
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
	sc := testnet.Generate(func() gen.Params {
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
