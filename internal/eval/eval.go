// Package eval measures schedules: the paper's global objective (the
// weighted sum of priorities of satisfied requests, §3), per-priority
// satisfaction counts (§5.4's weighting-scheme comparison), and the
// technical-report extras — mean links traversed per satisfied request and
// heuristic execution time.
package eval

import (
	"time"

	"datastaging/internal/core"
	"datastaging/internal/model"
	"datastaging/internal/scenario"
	"datastaging/internal/state"
)

// PriorityCount is satisfied-vs-total for one priority class.
type PriorityCount struct {
	Satisfied int
	Total     int
}

// Metrics summarizes one scheduling run.
type Metrics struct {
	// WeightedValue is the objective: Σ W[priority] over satisfied
	// requests.
	WeightedValue float64
	// SatisfiedCount and TotalRequests count requests.
	SatisfiedCount int
	TotalRequests  int
	// ByPriority indexes satisfaction counts by priority class.
	ByPriority []PriorityCount
	// Transfers is the number of committed communication steps.
	Transfers int
	// MeanHops is the mean number of links a satisfied request's copy
	// traversed from its originating source to the destination.
	MeanHops float64
	// Elapsed is the heuristic's wall-clock execution time.
	Elapsed time.Duration
	// DijkstraRuns counts shortest-path executions.
	DijkstraRuns int
}

// Measure computes the metrics of a scheduling result under the given
// weights (which may differ from the weights the scheduler optimized for —
// that is exactly the §5.4 cross-weighting comparison).
func Measure(sc *scenario.Scenario, res *core.Result, w model.Weights) Metrics {
	maxPri := 0
	for i := range sc.Items {
		for _, rq := range sc.Items[i].Requests {
			if int(rq.Priority) > maxPri {
				maxPri = int(rq.Priority)
			}
		}
	}
	m := Metrics{
		ByPriority:   make([]PriorityCount, maxPri+1),
		Transfers:    len(res.Transfers),
		Elapsed:      res.Elapsed,
		DijkstraRuns: res.Stats.DijkstraRuns,
	}
	hops := deliveryHops(sc, res.Transfers)
	var hopTotal int
	for i := range sc.Items {
		for k, rq := range sc.Items[i].Requests {
			m.TotalRequests++
			m.ByPriority[rq.Priority].Total++
			id := model.RequestID{Item: model.ItemID(i), Index: k}
			if _, ok := res.Satisfied[id]; !ok {
				continue
			}
			m.SatisfiedCount++
			m.ByPriority[rq.Priority].Satisfied++
			m.WeightedValue += w.Of(rq.Priority)
			hopTotal += hops[deliveryKey{item: model.ItemID(i), machine: rq.Machine}]
		}
	}
	if m.SatisfiedCount > 0 {
		m.MeanHops = float64(hopTotal) / float64(m.SatisfiedCount)
	}
	return m
}

type deliveryKey struct {
	item    model.ItemID
	machine model.MachineID
}

// deliveryHops computes, for every (item, machine) copy created by the
// schedule, how many links the copy traversed from an original source:
// each machine receives at most one copy of an item, so the chain of
// incoming transfers is unique.
func deliveryHops(sc *scenario.Scenario, transfers []state.Transfer) map[deliveryKey]int {
	incoming := make(map[deliveryKey]*state.Transfer, len(transfers))
	for i := range transfers {
		tr := &transfers[i]
		incoming[deliveryKey{item: tr.Item, machine: tr.To}] = tr
	}
	hops := make(map[deliveryKey]int, len(transfers))
	var chase func(k deliveryKey) int
	chase = func(k deliveryKey) int {
		if h, ok := hops[k]; ok {
			return h
		}
		tr, ok := incoming[k]
		if !ok {
			return 0 // original source
		}
		h := 1 + chase(deliveryKey{item: k.item, machine: tr.From})
		hops[k] = h
		return h
	}
	for k := range incoming {
		chase(k)
	}
	return hops
}
