package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"datastaging/internal/core"
	"datastaging/internal/dynamic"
	"datastaging/internal/eval"
	"datastaging/internal/gen"
	"datastaging/internal/model"
	"datastaging/internal/scenario"
	"datastaging/internal/simtime"
)

// GammaPoint is one garbage-collection-delay level of the γ ablation.
type GammaPoint struct {
	Gamma time.Duration
	// Value aggregates the weighted value over the cases.
	Value Stat
	// MeanSatisfied is the mean satisfied-request count.
	MeanSatisfied float64
}

// GammaSweep ablates the garbage-collection delay γ (§4.4): longer
// retention keeps intermediate copies around as extra sources and for fault
// tolerance, but occupies storage that other items may need. The paper
// fixes γ at six minutes; this sweep measures the static-schedule cost of
// that choice across retention levels.
func GammaSweep(opts Options, gammas []time.Duration, pair core.Pair, eu core.EUWeights) ([]GammaPoint, error) {
	if err := opts.fillDefaults(); err != nil {
		return nil, err
	}
	if len(gammas) == 0 {
		return nil, fmt.Errorf("experiment: no gamma levels")
	}
	out := make([]GammaPoint, 0, len(gammas))
	for _, g := range gammas {
		if g < 0 {
			return nil, fmt.Errorf("experiment: negative gamma %v", g)
		}
		p := opts.Params
		p.GarbageCollect = g
		values := make([]float64, opts.NumCases)
		var satisfied float64
		for ci := 0; ci < opts.NumCases; ci++ {
			sc, err := gen.Generate(p, opts.BaseSeed+int64(ci))
			if err != nil {
				return nil, fmt.Errorf("experiment: gamma %v case %d: %w", g, ci, err)
			}
			cfg := core.Config{Heuristic: pair.Heuristic, Criterion: pair.Criterion, EU: eu, Weights: opts.Weights, Obs: opts.Obs}
			res, err := core.Schedule(sc, cfg)
			if err != nil {
				return nil, err
			}
			m := eval.Measure(sc, res, opts.Weights)
			values[ci] = m.WeightedValue
			satisfied += float64(m.SatisfiedCount)
		}
		out = append(out, GammaPoint{
			Gamma:         g,
			Value:         StatOf(values),
			MeanSatisfied: satisfied / float64(opts.NumCases),
		})
	}
	return out, nil
}

// FailurePoint is one link-failure-rate level of the resilience sweep.
type FailurePoint struct {
	// FailedLinks is how many random virtual links fail per case.
	FailedLinks int
	// StaticValue is the no-failure weighted value on the same cases.
	StaticValue Stat
	// DynamicValue is the value achieved after failures and re-planning.
	DynamicValue Stat
	// RetainedFraction is the mean of dynamic/static value: how much of
	// the schedule survives, including re-planned recoveries.
	RetainedFraction float64
	// MeanAborted is the mean number of cascade-aborted transfers.
	MeanAborted float64
	// MeanReplans is the mean number of scheduler invocations.
	MeanReplans float64
}

// FailureSweep measures resilience under random link failures (the paper's
// §1 fault-tolerance motivation, as an extension): for each level, every
// test case runs statically and then dynamically with k random virtual
// links failing at random instants inside the active period, re-planning
// after each failure.
func FailureSweep(opts Options, failureCounts []int, pair core.Pair, eu core.EUWeights) ([]FailurePoint, error) {
	if err := opts.fillDefaults(); err != nil {
		return nil, err
	}
	if len(failureCounts) == 0 {
		return nil, fmt.Errorf("experiment: no failure levels")
	}
	cfg := core.Config{Heuristic: pair.Heuristic, Criterion: pair.Criterion, EU: eu, Weights: opts.Weights, Obs: opts.Obs}
	out := make([]FailurePoint, 0, len(failureCounts))
	for _, k := range failureCounts {
		if k < 0 {
			return nil, fmt.Errorf("experiment: negative failure count %d", k)
		}
		static := make([]float64, opts.NumCases)
		dyn := make([]float64, opts.NumCases)
		var fracSum, abortSum, replanSum float64
		for ci := 0; ci < opts.NumCases; ci++ {
			seed := opts.BaseSeed + int64(ci)
			sc, err := gen.Generate(opts.Params, seed)
			if err != nil {
				return nil, fmt.Errorf("experiment: failures %d case %d: %w", k, ci, err)
			}
			sres, err := core.Schedule(sc, cfg)
			if err != nil {
				return nil, err
			}
			static[ci] = sres.WeightedValue(sc, opts.Weights)

			events := randomFailures(sc, k, seed)
			dres, err := dynamic.Simulate(sc, cfg, events)
			if err != nil {
				return nil, err
			}
			var dv float64
			for id := range dres.Satisfied {
				dv += opts.Weights.Of(sc.Request(id).Priority)
			}
			dyn[ci] = dv
			if static[ci] > 0 {
				fracSum += dv / static[ci]
			} else {
				fracSum++
			}
			abortSum += float64(len(dres.Aborted))
			replanSum += float64(dres.Replans)
		}
		n := float64(opts.NumCases)
		out = append(out, FailurePoint{
			FailedLinks:      k,
			StaticValue:      StatOf(static),
			DynamicValue:     StatOf(dyn),
			RetainedFraction: fracSum / n,
			MeanAborted:      abortSum / n,
			MeanReplans:      replanSum / n,
		})
	}
	return out, nil
}

// SerialPoint compares the paper's parallel-send model against the §3
// future-work port serialization on the same cases.
type SerialPoint struct {
	Parallel Stat
	Serial   Stat
	// RetainedFraction is the mean serial/parallel value ratio.
	RetainedFraction float64
}

// SerialComparison measures what the paper's "each machine can send
// different data items simultaneously" assumption is worth: the same pair
// runs on the same cases with and without per-machine port serialization.
func SerialComparison(opts Options, pair core.Pair, eu core.EUWeights) (*SerialPoint, error) {
	if err := opts.fillDefaults(); err != nil {
		return nil, err
	}
	cfg := core.Config{Heuristic: pair.Heuristic, Criterion: pair.Criterion, EU: eu, Weights: opts.Weights, Obs: opts.Obs}
	par := make([]float64, opts.NumCases)
	ser := make([]float64, opts.NumCases)
	var fracSum float64
	for ci := 0; ci < opts.NumCases; ci++ {
		seed := opts.BaseSeed + int64(ci)
		free, err := gen.Generate(opts.Params, seed)
		if err != nil {
			return nil, err
		}
		locked, err := gen.Generate(opts.Params, seed)
		if err != nil {
			return nil, err
		}
		locked.SerialTransfers = true
		fres, err := core.Schedule(free, cfg)
		if err != nil {
			return nil, err
		}
		lres, err := core.Schedule(locked, cfg)
		if err != nil {
			return nil, err
		}
		par[ci] = fres.WeightedValue(free, opts.Weights)
		ser[ci] = lres.WeightedValue(locked, opts.Weights)
		if par[ci] > 0 {
			fracSum += ser[ci] / par[ci]
		} else {
			fracSum++
		}
	}
	return &SerialPoint{
		Parallel:         StatOf(par),
		Serial:           StatOf(ser),
		RetainedFraction: fracSum / float64(opts.NumCases),
	}, nil
}

// ArrivalPoint is one level of the online-arrival sweep.
type ArrivalPoint struct {
	// DynamicFraction is the share of items whose requests are only
	// revealed at a random instant instead of being known at time zero.
	DynamicFraction float64
	// OfflineValue is the everything-known-upfront value on the same
	// cases; OnlineValue is what event-driven re-planning achieves.
	OfflineValue Stat
	OnlineValue  Stat
	// RetainedFraction is the mean online/offline ratio — an empirical
	// competitive ratio of the re-planning scheduler.
	RetainedFraction float64
	// MeanReplans counts scheduler invocations per case.
	MeanReplans float64
}

// ArrivalSweep measures the cost of late knowledge (the paper's dynamic
// future work, §1/§6): for each level, a fraction of the items become known
// only at an instant drawn uniformly from the first half of their lead time
// (between time zero and their earliest deadline), and the event-driven
// simulator re-plans on each arrival. The offline scheduler on the same
// cases is the clairvoyant baseline.
func ArrivalSweep(opts Options, fractions []float64, pair core.Pair, eu core.EUWeights) ([]ArrivalPoint, error) {
	if err := opts.fillDefaults(); err != nil {
		return nil, err
	}
	if len(fractions) == 0 {
		return nil, fmt.Errorf("experiment: no arrival fractions")
	}
	cfg := core.Config{Heuristic: pair.Heuristic, Criterion: pair.Criterion, EU: eu, Weights: opts.Weights, Obs: opts.Obs}
	out := make([]ArrivalPoint, 0, len(fractions))
	for _, frac := range fractions {
		if frac < 0 || frac > 1 {
			return nil, fmt.Errorf("experiment: arrival fraction %v outside [0,1]", frac)
		}
		offline := make([]float64, opts.NumCases)
		online := make([]float64, opts.NumCases)
		var fracSum, replanSum float64
		for ci := 0; ci < opts.NumCases; ci++ {
			seed := opts.BaseSeed + int64(ci)
			sc, err := gen.Generate(opts.Params, seed)
			if err != nil {
				return nil, err
			}
			sres, err := core.Schedule(sc, cfg)
			if err != nil {
				return nil, err
			}
			offline[ci] = sres.WeightedValue(sc, opts.Weights)

			events := randomArrivals(sc, frac, seed)
			dres, err := dynamic.Simulate(sc, cfg, events)
			if err != nil {
				return nil, err
			}
			var ov float64
			for id := range dres.Satisfied {
				ov += opts.Weights.Of(sc.Request(id).Priority)
			}
			online[ci] = ov
			if offline[ci] > 0 {
				fracSum += ov / offline[ci]
			} else {
				fracSum++
			}
			replanSum += float64(dres.Replans)
		}
		n := float64(opts.NumCases)
		out = append(out, ArrivalPoint{
			DynamicFraction:  frac,
			OfflineValue:     StatOf(offline),
			OnlineValue:      StatOf(online),
			RetainedFraction: fracSum / n,
			MeanReplans:      replanSum / n,
		})
	}
	return out, nil
}

// randomArrivals releases a deterministic random fraction of the items at
// instants drawn uniformly from [0, earliestDeadline/2) — late enough to
// hurt, early enough that satisfying them remains possible.
func randomArrivals(sc *scenario.Scenario, fraction float64, seed int64) []dynamic.Event {
	rng := rand.New(rand.NewSource(seed * 104729))
	var events []dynamic.Event
	for i := range sc.Items {
		if rng.Float64() >= fraction {
			continue
		}
		var earliest simtime.Instant
		for k, rq := range sc.Items[i].Requests {
			if k == 0 || rq.Deadline < earliest {
				earliest = rq.Deadline
			}
		}
		if earliest <= 0 {
			continue
		}
		at := simtime.Instant(rng.Int63n(int64(earliest) / 2))
		events = append(events, dynamic.Event{At: at, Kind: dynamic.ItemRelease, Item: model.ItemID(i)})
	}
	return events
}

// randomFailures draws k distinct virtual links failing at uniform instants
// within the scenario's active period (first two hours, matching the §5.3
// deadline horizon), deterministically per seed.
func randomFailures(sc *scenario.Scenario, k int, seed int64) []dynamic.Event {
	rng := rand.New(rand.NewSource(seed * 7919))
	n := len(sc.Network.Links)
	if k > n {
		k = n
	}
	perm := rng.Perm(n)
	events := make([]dynamic.Event, 0, k)
	for i := 0; i < k; i++ {
		events = append(events, dynamic.Event{
			At:   simtime.At(time.Duration(rng.Int63n(int64(2 * time.Hour)))),
			Kind: dynamic.LinkFail,
			Link: model.LinkID(perm[i]),
		})
	}
	return events
}
