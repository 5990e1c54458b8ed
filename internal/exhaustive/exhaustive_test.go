package exhaustive

import (
	"testing"
	"time"

	"datastaging/internal/core"
	"datastaging/internal/gen"
	"datastaging/internal/model"
	"datastaging/internal/testnet"
)

func TestSearchTrivialLine(t *testing.T) {
	sc := testnet.Line(3, 1024, 8000, time.Hour)
	res, err := Search(sc, model.Weights1x10x100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 100 {
		t.Errorf("Value: got %v, want 100", res.Value)
	}
	if len(res.Satisfied) != 1 {
		t.Errorf("Satisfied: got %v", res.Satisfied)
	}
	if res.Explored < 2 {
		t.Errorf("Explored: got %d", res.Explored)
	}
}

func TestSearchRejectsLargeInstances(t *testing.T) {
	sc := testnet.Generate(gen.Default(), 1)
	if _, err := Search(sc, model.Weights1x10x100); err == nil {
		t.Error("paper-scale instance should be rejected")
	}
}

func TestSearchFindsOrderDependentOptimum(t *testing.T) {
	// One serial link fits two transfers before t=2.05s but the deadlines
	// differ: serving the loose-deadline item first wastes the early slot.
	// Greedy priority order (high first) is suboptimal; the search must
	// find the order that satisfies both.
	b := testnet.NewBuilder()
	ms := b.Machines(2, 1<<30)
	b.Link(ms[0], ms[1], 0, 24*time.Hour, 8000) // 1.024 s per 1 KB transfer
	b.Link(ms[1], ms[0], 0, 24*time.Hour, 8000)
	hop := 1024 * time.Millisecond
	tight := b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[1], hop+time.Millisecond, model.Low)})
	loose := b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[1], 2*hop+time.Millisecond, model.High)})
	sc := b.Build("order")

	res, err := Search(sc, model.Weights1x10x100)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: tight (low, 1) first then loose (high, 100) = 101.
	if res.Value != 101 {
		t.Errorf("Value: got %v, want 101", res.Value)
	}
	_ = tight
	_ = loose
}

// TestHeuristicsNeverBeatExhaustive: the exhaustive optimum over greedy
// orders dominates every heuristic/cost-criterion pair on small random
// instances, and the best pairs come close.
func TestHeuristicsNeverBeatExhaustive(t *testing.T) {
	p := gen.Default()
	p.Machines = gen.IntRange{Min: 4, Max: 5}
	p.RequestsPerMachine = gen.IntRange{Min: 1, Max: 1}
	p.DestsPerItem = gen.IntRange{Min: 1, Max: 2}
	w := model.Weights1x10x100
	var optSum, bestHeurSum float64
	for seed := int64(1); seed <= 6; seed++ {
		sc := testnet.Generate(p, seed)
		if sc.NumRequests() > MaxRequests {
			continue
		}
		opt, err := Search(sc, w)
		if err != nil {
			t.Fatal(err)
		}
		optSum += opt.Value
		best := 0.0
		for _, pair := range core.Pairs() {
			for _, eu := range []core.EUWeights{core.EUUrgencyOnly, core.EUFromLog10(2)} {
				cfg := core.Config{Heuristic: pair.Heuristic, Criterion: pair.Criterion, EU: eu, Weights: w}
				res, err := core.Schedule(sc, cfg)
				if err != nil {
					t.Fatal(err)
				}
				v := res.WeightedValue(sc, w)
				if v > opt.Value+1e-9 {
					t.Errorf("seed %d: %v@%s achieved %v above exhaustive %v",
						seed, pair, eu.Label(), v, opt.Value)
				}
				if v > best {
					best = v
				}
			}
		}
		bestHeurSum += best
	}
	if optSum == 0 {
		t.Skip("all generated instances exceeded the request cap")
	}
	if bestHeurSum < 0.8*optSum {
		t.Errorf("best heuristic sum %v below 80%% of exhaustive %v", bestHeurSum, optSum)
	}
}
