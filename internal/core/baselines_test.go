package core

import (
	"testing"
	"time"

	"datastaging/internal/gen"
	"datastaging/internal/model"
	"datastaging/internal/testnet"
)

func smallScenario(seed int64) *gen.Params {
	p := gen.Default()
	p.Machines = gen.IntRange{Min: 6, Max: 6}
	p.RequestsPerMachine = gen.IntRange{Min: 10, Max: 10}
	return &p
}

func TestRandomDijkstraBasics(t *testing.T) {
	sc := testnet.Line(4, 1024, 8000, time.Hour)
	res, err := RandomDijkstra(sc, model.Weights1x10x100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Satisfied) != 1 {
		t.Errorf("random_Dijkstra on trivial line: satisfied %d, want 1", len(res.Satisfied))
	}
	// Deterministic for a fixed seed.
	res2, err := RandomDijkstra(sc, model.Weights1x10x100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Transfers) != len(res2.Transfers) {
		t.Error("same seed should reproduce the schedule")
	}
}

func TestSingleDijkstraRandomBasics(t *testing.T) {
	sc := testnet.Line(4, 1024, 8000, time.Hour)
	res, err := SingleDijkstraRandom(sc, model.Weights1x10x100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Satisfied) != 1 {
		t.Errorf("single_Dij_random on trivial line: satisfied %d, want 1", len(res.Satisfied))
	}
	if res.Stats.DijkstraRuns != 1 {
		t.Errorf("single_Dij_random must run Dijkstra once per item: got %d", res.Stats.DijkstraRuns)
	}
}

func TestSingleDijkstraRandomDropsConflicts(t *testing.T) {
	// Two items, one serial link, both paths precomputed on the pristine
	// network want slot [0, 1.024s). The second commit must conflict and
	// the request is dropped — not rerouted.
	b := testnet.NewBuilder()
	ms := b.Machines(2, 1<<30)
	b.Link(ms[0], ms[1], 0, 24*time.Hour, 8000)
	b.Link(ms[1], ms[0], 0, 24*time.Hour, 8000)
	for i := 0; i < 2; i++ {
		b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
			[]model.Request{testnet.Req(ms[1], time.Hour, model.High)})
	}
	sc := b.Build("clash")
	res, err := SingleDijkstraRandom(sc, model.Weights1x10x100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Satisfied) != 1 {
		t.Errorf("satisfied %d, want exactly 1 (second dropped on conflict)", len(res.Satisfied))
	}
	// The adaptive heuristics reroute in time instead and satisfy both.
	cfg := Config{Heuristic: PartialPath, Criterion: C4, EU: EUFromLog10(0), Weights: model.Weights1x10x100}
	adaptive, err := Schedule(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(adaptive.Satisfied) != 2 {
		t.Errorf("adaptive heuristic: satisfied %d, want 2", len(adaptive.Satisfied))
	}
}

func TestHeuristicBeatsLowerBoundsOnGenerated(t *testing.T) {
	p := smallScenario(1)
	w := model.Weights1x10x100
	var heurTotal, randTotal, singleTotal float64
	for seed := int64(1); seed <= 4; seed++ {
		sc := testnet.Generate(*p, seed)
		cfg := Config{Heuristic: FullPathOneDest, Criterion: C4, EU: EUFromLog10(2), Weights: w}
		heur, err := Schedule(sc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := RandomDijkstra(sc, w, seed)
		if err != nil {
			t.Fatal(err)
		}
		sd, err := SingleDijkstraRandom(sc, w, seed)
		if err != nil {
			t.Fatal(err)
		}
		heurTotal += heur.WeightedValue(sc, w)
		randTotal += rd.WeightedValue(sc, w)
		singleTotal += sd.WeightedValue(sc, w)
	}
	if heurTotal < randTotal {
		t.Errorf("heuristic (%v) should beat random_Dijkstra (%v) on average", heurTotal, randTotal)
	}
	if heurTotal < singleTotal {
		t.Errorf("heuristic (%v) should beat single_Dij_random (%v) on average", heurTotal, singleTotal)
	}
}

func TestPriorityFirstSchedulesHighBeforeLow(t *testing.T) {
	sc, low, high := contended()
	res, err := PriorityFirst(sc, model.Weights1x10x100)
	if err != nil {
		t.Fatal(err)
	}
	if !resSatisfied(res, high, 0) {
		t.Error("priority_first must satisfy the high-priority request")
	}
	if resSatisfied(res, low, 0) {
		t.Error("low-priority request cannot fit after high")
	}
}

func TestPriorityFirstIgnoresCrossClassTradeoffs(t *testing.T) {
	// One high-priority request with lots of slack and two medium requests
	// with tight deadlines, all on one serial link fitting two transfers
	// before the medium deadlines. priority_first burns the first slot on
	// the high request; a weighted heuristic can satisfy all three by
	// ordering mediums first.
	b := testnet.NewBuilder()
	ms := b.Machines(4, 1<<30)
	day := 24 * time.Hour
	// All items sit on machine 0; single serial outgoing link per dest.
	b.Link(ms[0], ms[1], 0, day, 8000) // shared serial bottleneck to 1
	b.Link(ms[1], ms[2], 0, day, 80000)
	b.Link(ms[1], ms[3], 0, day, 80000)
	b.Link(ms[2], ms[0], 0, day, 80000)
	b.Link(ms[3], ms[0], 0, day, 80000)
	hop := 1024 * time.Millisecond
	med1 := b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[1], hop, model.Medium)}) // only fits in slot 1
	med2 := b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[1], 2*hop, model.Medium)}) // fits in slot 2
	hi := b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[1], day, model.High)}) // fits anywhere
	sc := b.Build("crossclass")

	pf, err := PriorityFirst(sc, model.Weights1x10x100)
	if err != nil {
		t.Fatal(err)
	}
	if !resSatisfied(pf, hi, 0) {
		t.Error("priority_first must satisfy the high request")
	}
	if resSatisfied(pf, med1, 0) {
		t.Error("priority_first should sacrifice the tightest medium request")
	}

	cfg := Config{Heuristic: PartialPath, Criterion: C4, EU: EUFromLog10(0), Weights: model.Weights1x10x100}
	heur, err := Schedule(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := model.Weights1x10x100
	if heur.WeightedValue(sc, w) <= pf.WeightedValue(sc, w) {
		t.Errorf("heuristic (%v) should beat priority_first (%v) here",
			heur.WeightedValue(sc, w), pf.WeightedValue(sc, w))
	}
	_ = med2
}
