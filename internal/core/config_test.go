package core

import (
	"math"
	"testing"

	"datastaging/internal/model"
)

func TestHeuristicAndCriterionStrings(t *testing.T) {
	for _, tc := range []struct {
		s    string
		want string
	}{
		{PartialPath.String(), "partial"},
		{FullPathOneDest.String(), "full_one"},
		{FullPathAllDests.String(), "full_all"},
		{Heuristic(9).String(), "heuristic(9)"},
		{C1.String(), "C1"},
		{C4.String(), "C4"},
		{C5.String(), "C5"},
		{Criterion(9).String(), "criterion(9)"},
	} {
		if tc.s != tc.want {
			t.Errorf("got %q, want %q", tc.s, tc.want)
		}
	}
}

func TestEUWeights(t *testing.T) {
	eu := EUFromLog10(2)
	if eu.WE != 100 || eu.WU != 1 {
		t.Errorf("EUFromLog10(2): got %+v", eu)
	}
	for _, tc := range []struct {
		eu   EUWeights
		want string
	}{
		{EUPriorityOnly, "inf"},
		{EUUrgencyOnly, "-inf"},
		{EUFromLog10(0), "0"},
		{EUFromLog10(-3), "-3"},
		{EUFromLog10(5), "5"},
	} {
		if got := tc.eu.Label(); got != tc.want {
			t.Errorf("Label(%+v): got %q, want %q", tc.eu, got, tc.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Heuristic: PartialPath, Criterion: C4, EU: EUFromLog10(1), Weights: model.Weights1x10x100}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(c *Config)
	}{
		{"zero heuristic", func(c *Config) { c.Heuristic = 0 }},
		{"big heuristic", func(c *Config) { c.Heuristic = 9 }},
		{"zero criterion", func(c *Config) { c.Criterion = 0 }},
		{"big criterion", func(c *Config) { c.Criterion = 9 }},
		{"excluded pairing", func(c *Config) { c.Heuristic = FullPathAllDests; c.Criterion = C1 }},
		{"no weights", func(c *Config) { c.Weights = nil }},
		{"negative WE", func(c *Config) { c.EU = EUWeights{WE: -1, WU: 1} }},
		{"both zero", func(c *Config) { c.EU = EUWeights{} }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			c := good
			tc.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Error("Validate should have failed")
			}
		})
	}
	// C3 and C5 ignore the EU weights entirely.
	for _, crit := range []Criterion{C3, C5} {
		c := Config{Heuristic: PartialPath, Criterion: crit, Weights: model.Weights1x5x10}
		if err := c.Validate(); err != nil {
			t.Errorf("%v with zero EU weights should validate: %v", crit, err)
		}
	}
}

func TestPairsEnumeratesEleven(t *testing.T) {
	pairs := Pairs()
	if len(pairs) != 11 {
		t.Fatalf("Pairs: got %d, want 11", len(pairs))
	}
	for _, pr := range pairs {
		if pr.Heuristic == FullPathAllDests && pr.Criterion == C1 {
			t.Error("excluded pairing present in Pairs()")
		}
		if pr.Criterion == C5 {
			t.Error("extension criterion present in the paper's Pairs()")
		}
	}
	ext := PairsWithExtensions()
	if len(ext) != 14 {
		t.Fatalf("PairsWithExtensions: got %d, want 14", len(ext))
	}
	c5s := 0
	for _, pr := range ext {
		if pr.Criterion == C5 {
			c5s++
		}
	}
	if c5s != 3 {
		t.Errorf("PairsWithExtensions: %d C5 pairs, want 3", c5s)
	}
}

func TestPairString(t *testing.T) {
	p := Pair{Heuristic: FullPathOneDest, Criterion: C4}
	if got := p.String(); got != "full_one/C4" {
		t.Errorf("Pair.String: got %q", got)
	}
}

func TestC5BoundedUrgency(t *testing.T) {
	// A candidate with one zero-slack low-weight destination must not
	// dominate a candidate with several relaxed high-weight destinations —
	// the exact failure mode the paper attributes to C3.
	tinySlack := candidate{dests: []destInfo{{weight: 1, slackSec: 0}}}
	heavy := candidate{dests: []destInfo{
		{weight: 100, slackSec: 1200},
		{weight: 100, slackSec: 1200},
	}}
	cfg5 := Config{Criterion: C5}
	tinyCost, _ := tinySlack.cost(cfg5)
	heavyCost, _ := heavy.cost(cfg5)
	if !(heavyCost < tinyCost) {
		t.Errorf("C5 should prefer the heavy candidate: %v vs %v", heavyCost, tinyCost)
	}
	// Under C3 the tiny-slack candidate wins on the unbounded ratio.
	cfg3 := Config{Criterion: C3}
	tinyCost3, _ := tinySlack.cost(cfg3)
	heavyCost3, _ := heavy.cost(cfg3)
	if !(tinyCost3 < heavyCost3) {
		t.Errorf("C3 fixture should show the blowup: %v vs %v", tinyCost3, heavyCost3)
	}
	// The urgency factor is bounded in (0, 1].
	for _, slack := range []float64{-5, 0, 1, 600, 1e9} {
		f := urgencyFactor(slack)
		if f <= 0 || f > 1 {
			t.Errorf("urgencyFactor(%v) = %v outside (0,1]", slack, f)
		}
	}
	if urgencyFactor(0) != 1 {
		t.Errorf("zero slack should give factor 1")
	}
	if got := urgencyFactor(c5Tau); got != 0.5 {
		t.Errorf("slack=τ should give 0.5, got %v", got)
	}
}

func TestDestInfoCost1(t *testing.T) {
	d := destInfo{weight: 10, slackSec: 60}
	eu := EUWeights{WE: 2, WU: 1}
	if got := d.cost1(eu); got != -2*10+60 {
		t.Errorf("cost1: got %v, want 40", got)
	}
	if got := d.urgency(); got != -60 {
		t.Errorf("urgency: got %v, want -60", got)
	}
}

func TestCandidateCostCriteria(t *testing.T) {
	c := candidate{dests: []destInfo{
		{weight: 10, slackSec: 100},
		{weight: 1, slackSec: 5},
	}}
	eu := EUWeights{WE: 1, WU: 1}

	// C1: min over per-dest costs: min(-10+100, -1+5) = 4.
	cost, bestDest := c.cost(Config{Criterion: C1, EU: eu})
	if cost != 4 || bestDest != 1 {
		t.Errorf("C1: got (%v, %d), want (4, 1)", cost, bestDest)
	}
	// C2: -ΣW - max urgency = -11 - (-5) = -6.
	if cost, _ := c.cost(Config{Criterion: C2, EU: eu}); cost != -6 {
		t.Errorf("C2: got %v, want -6", cost)
	}
	// C3: Σ w/urgency = 10/-100 + 1/-5 = -0.3.
	if cost, _ := c.cost(Config{Criterion: C3, EU: eu}); math.Abs(cost-(-0.3)) > 1e-12 {
		t.Errorf("C3: got %v, want -0.3", cost)
	}
	// C4: -ΣW - Σurgency = -11 - (-105) = 94.
	if cost, _ := c.cost(Config{Criterion: C4, EU: eu}); cost != 94 {
		t.Errorf("C4: got %v, want 94", cost)
	}
}

func TestC3ZeroSlackFinite(t *testing.T) {
	c := candidate{dests: []destInfo{{weight: 10, slackSec: 0}}}
	cost, _ := c.cost(Config{Criterion: C3})
	if math.IsInf(cost, 0) || math.IsNaN(cost) {
		t.Errorf("C3 with zero slack must be finite, got %v", cost)
	}
	if cost >= 0 {
		t.Errorf("C3 with zero slack should be hugely negative (most preferred), got %v", cost)
	}
}

func TestC2VsC4PaperExample(t *testing.T) {
	// Paper §4.8: item A has four identically urgent destinations, item B
	// has one urgent and three relaxed. C2 cannot differentiate; C4 must
	// prefer item A.
	urgent, relaxed := 10.0, 1000.0
	a := candidate{item: 0, dests: []destInfo{
		{weight: 5, slackSec: urgent}, {weight: 5, slackSec: urgent},
		{weight: 5, slackSec: urgent}, {weight: 5, slackSec: urgent},
	}}
	bCand := candidate{item: 1, dests: []destInfo{
		{weight: 5, slackSec: urgent}, {weight: 5, slackSec: relaxed},
		{weight: 5, slackSec: relaxed}, {weight: 5, slackSec: relaxed},
	}}
	eu := EUWeights{WE: 1, WU: 1}

	costA2, _ := a.cost(Config{Criterion: C2, EU: eu})
	costB2, _ := bCand.cost(Config{Criterion: C2, EU: eu})
	if costA2 != costB2 {
		t.Errorf("C2 should not differentiate: %v vs %v", costA2, costB2)
	}
	costA4, _ := a.cost(Config{Criterion: C4, EU: eu})
	costB4, _ := bCand.cost(Config{Criterion: C4, EU: eu})
	if !(costA4 < costB4) {
		t.Errorf("C4 should prefer the uniformly urgent item: %v vs %v", costA4, costB4)
	}
}

func TestSelectBestTieBreaks(t *testing.T) {
	mk := func(item model.ItemID, to model.MachineID, link model.LinkID) candidate {
		c := candidate{item: item, dests: []destInfo{{weight: 1, slackSec: 10}}}
		c.hop.To = to
		c.hop.Link = link
		return c
	}
	cfg := Config{Criterion: C1, EU: EUWeights{WE: 1, WU: 1}}
	// selectBest reads the costs the planner stores when it builds a group.
	price := func(cands []candidate) []candidate {
		for i := range cands {
			cands[i].score, cands[i].bestDest = cands[i].cost(cfg)
		}
		return cands
	}
	// All equal cost; lowest (item, machine, link) wins regardless of order.
	cands := price([]candidate{mk(2, 0, 0), mk(1, 3, 2), mk(1, 3, 1), mk(1, 5, 0)})
	bi, _ := selectBest(cands)
	if cands[bi].item != 1 || cands[bi].hop.To != 3 || cands[bi].hop.Link != 1 {
		t.Errorf("tie-break: got item %d to %d link %d",
			cands[bi].item, cands[bi].hop.To, cands[bi].hop.Link)
	}
	// A strictly cheaper candidate wins no matter its ids.
	cheap := mk(9, 9, 9)
	cheap.dests[0].weight = 100
	cands = price(append(cands, cheap))
	bi, _ = selectBest(cands)
	if cands[bi].item != 9 {
		t.Errorf("cheapest should win: got item %d", cands[bi].item)
	}
}
