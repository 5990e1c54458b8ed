package eval

import (
	"testing"
	"time"

	"datastaging/internal/core"
	"datastaging/internal/model"
	"datastaging/internal/testnet"
)

func TestMeasureLine(t *testing.T) {
	sc := testnet.Line(4, 1024, 8000, time.Hour)
	cfg := core.Config{Heuristic: core.PartialPath, Criterion: core.C4,
		EU: core.EUFromLog10(0), Weights: model.Weights1x10x100}
	res, err := core.Schedule(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := Measure(sc, res, model.Weights1x10x100)
	if m.WeightedValue != 100 {
		t.Errorf("WeightedValue: got %v, want 100", m.WeightedValue)
	}
	if m.SatisfiedCount != 1 || m.TotalRequests != 1 {
		t.Errorf("counts: got %d/%d", m.SatisfiedCount, m.TotalRequests)
	}
	if m.Transfers != 3 {
		t.Errorf("Transfers: got %d, want 3", m.Transfers)
	}
	if m.MeanHops != 3 {
		t.Errorf("MeanHops: got %v, want 3 (source to destination across the chain)", m.MeanHops)
	}
	if m.ByPriority[model.High].Satisfied != 1 || m.ByPriority[model.High].Total != 1 {
		t.Errorf("ByPriority[High]: got %+v", m.ByPriority[model.High])
	}
	if m.ByPriority[model.Low].Total != 0 {
		t.Errorf("ByPriority[Low]: got %+v", m.ByPriority[model.Low])
	}
	if m.DijkstraRuns == 0 {
		t.Error("DijkstraRuns should be counted")
	}
}

func TestMeasureCrossWeighting(t *testing.T) {
	sc := testnet.Line(3, 1024, 8000, time.Hour)
	cfg := core.Config{Heuristic: core.FullPathOneDest, Criterion: core.C2,
		EU: core.EUPriorityOnly, Weights: model.Weights1x5x10}
	res, err := core.Schedule(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Scheduled under 1/5/10 but measured under 1/10/100.
	m := Measure(sc, res, model.Weights1x10x100)
	if m.WeightedValue != 100 {
		t.Errorf("cross-weighted value: got %v, want 100", m.WeightedValue)
	}
}

func TestMeasureMeanHopsMultipleDests(t *testing.T) {
	// Star through a hub: dests at distance 2; one extra dest adjacent to
	// the source at distance 1.
	b := testnet.NewBuilder()
	ms := b.Machines(4, 1<<30)
	day := 24 * time.Hour
	b.Link(ms[0], ms[1], 0, day, 80000)
	b.Link(ms[1], ms[2], 0, day, 80000)
	b.Link(ms[1], ms[3], 0, day, 80000)
	b.Link(ms[2], ms[0], 0, day, 80000)
	b.Link(ms[3], ms[0], 0, day, 80000)
	b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{
			testnet.Req(ms[1], time.Hour, model.High), // 1 hop
			testnet.Req(ms[2], time.Hour, model.High), // 2 hops
			testnet.Req(ms[3], time.Hour, model.High), // 2 hops
		})
	sc := b.Build("hops")
	cfg := core.Config{Heuristic: core.FullPathAllDests, Criterion: core.C4,
		EU: core.EUFromLog10(0), Weights: model.Weights1x10x100}
	res, err := core.Schedule(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := Measure(sc, res, model.Weights1x10x100)
	if m.SatisfiedCount != 3 {
		t.Fatalf("satisfied: got %d, want 3", m.SatisfiedCount)
	}
	want := (1.0 + 2.0 + 2.0) / 3.0
	if m.MeanHops != want {
		t.Errorf("MeanHops: got %v, want %v", m.MeanHops, want)
	}
}

func TestMeasureEmptySchedule(t *testing.T) {
	// Impossible deadline: nothing satisfiable.
	b := testnet.NewBuilder()
	ms := b.Machines(2, 1<<30)
	b.Link(ms[0], ms[1], 0, 24*time.Hour, 8)
	b.Link(ms[1], ms[0], 0, 24*time.Hour, 8000)
	b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[1], time.Minute, model.High)})
	sc := b.Build("hopeless")
	cfg := core.Config{Heuristic: core.PartialPath, Criterion: core.C1,
		EU: core.EUFromLog10(0), Weights: model.Weights1x10x100}
	res, err := core.Schedule(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := Measure(sc, res, model.Weights1x10x100)
	if m.WeightedValue != 0 || m.SatisfiedCount != 0 || m.MeanHops != 0 || m.Transfers != 0 {
		t.Errorf("empty schedule metrics: %+v", m)
	}
	if m.ByPriority[model.High].Total != 1 {
		t.Errorf("totals should still count: %+v", m.ByPriority)
	}
}
