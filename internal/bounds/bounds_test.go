package bounds

import (
	"testing"
	"time"

	"datastaging/internal/core"
	"datastaging/internal/gen"
	"datastaging/internal/model"
	"datastaging/internal/testnet"
)

func TestUpper(t *testing.T) {
	sc := testnet.Line(3, 1024, 8000, time.Hour)
	if got := Upper(sc, model.Weights1x10x100); got != 100 {
		t.Errorf("Upper: got %v, want 100", got)
	}
}

func TestPossibleSatisfyTrivial(t *testing.T) {
	sc := testnet.Line(3, 1024, 8000, time.Hour)
	sum, n := PossibleSatisfy(sc, model.Weights1x10x100)
	if sum != 100 || n != 1 {
		t.Errorf("PossibleSatisfy: got (%v, %d), want (100, 1)", sum, n)
	}
}

func TestPossibleSatisfyExcludesInfeasible(t *testing.T) {
	// Deadline shorter than the only link's transfer time: even alone the
	// request cannot be satisfied.
	b := testnet.NewBuilder()
	ms := b.Machines(2, 1<<30)
	b.Link(ms[0], ms[1], 0, 24*time.Hour, 8) // 1 KB at 8 bit/s ≈ 17 m
	b.Link(ms[1], ms[0], 0, 24*time.Hour, 8000)
	b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[1], time.Minute, model.High)})
	b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[1], time.Hour, model.Low)})
	sc := b.Build("infeasible")

	sum, n := PossibleSatisfy(sc, model.Weights1x10x100)
	if sum != 1 || n != 1 {
		t.Errorf("PossibleSatisfy: got (%v, %d), want (1, 1)", sum, n)
	}
	if up := Upper(sc, model.Weights1x10x100); up != 101 {
		t.Errorf("Upper: got %v, want 101", up)
	}
}

// TestBoundOrdering verifies the paper's Figure 2 ordering on generated
// cases: single_Dij_random <= possible_satisfy <= upper_bound, and the
// heuristics land between the lower bounds and possible_satisfy.
func TestBoundOrdering(t *testing.T) {
	p := gen.Default()
	p.Machines = gen.IntRange{Min: 6, Max: 6}
	p.RequestsPerMachine = gen.IntRange{Min: 10, Max: 10}
	w := model.Weights1x10x100
	for seed := int64(1); seed <= 3; seed++ {
		sc := testnet.Generate(p, seed)
		upper := Upper(sc, w)
		possible, _ := PossibleSatisfy(sc, w)
		if possible > upper {
			t.Errorf("seed %d: possible_satisfy %v exceeds upper_bound %v", seed, possible, upper)
		}
		sd, err := SingleDijkstraRandom(sc, w, seed)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := RandomDijkstra(sc, w, seed)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := PriorityFirst(sc, w)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{Heuristic: core.FullPathOneDest, Criterion: core.C4, EU: core.EUFromLog10(2), Weights: w}
		heur, err := core.Schedule(sc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name  string
			value float64
		}{
			{"single_Dij_random", sd.WeightedValue(sc, w)},
			{"random_Dijkstra", rd.WeightedValue(sc, w)},
			{"priority_first", pf.WeightedValue(sc, w)},
			{"full_one/C4", heur.WeightedValue(sc, w)},
		} {
			if tc.value > possible {
				t.Errorf("seed %d: %s achieved %v above possible_satisfy %v", seed, tc.name, tc.value, possible)
			}
			if tc.value < 0 {
				t.Errorf("seed %d: %s negative value", seed, tc.name)
			}
		}
		if heur.WeightedValue(sc, w) < sd.WeightedValue(sc, w) {
			t.Errorf("seed %d: heuristic below single_Dij_random", seed)
		}
	}
}
