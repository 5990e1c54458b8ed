package experiment

import (
	"fmt"
	"time"

	"datastaging/internal/bounds"
	"datastaging/internal/core"
	"datastaging/internal/eval"
	"datastaging/internal/gen"
)

// CongestionPoint is one network-load level of the congestion sweep: the
// request load in requests per machine, the achieved weighted value, and
// the same-case upper bounds for normalization.
type CongestionPoint struct {
	RequestsPerMachine int
	Value              Stat
	PossibleSatisfy    Stat
	Upper              Stat
	// SatisfiedFraction is the mean of value/possible_satisfy per case:
	// how much of the individually achievable weight survives contention.
	SatisfiedFraction float64
}

// CongestionResult is the full congestion sweep for one pair.
type CongestionResult struct {
	Pair    core.Pair
	EU      core.EUWeights
	Points  []CongestionPoint
	Cases   int
	Elapsed time.Duration
}

// CongestionSweep runs the paper's stated future work (§6): the same
// heuristic/cost-criterion pair across increasing network load. Each load
// level fixes RequestsPerMachine to a single value and regenerates the test
// cases.
func CongestionSweep(opts Options, loads []int, pair core.Pair, eu core.EUWeights) (*CongestionResult, error) {
	begin := time.Now()
	if err := opts.fillDefaults(); err != nil {
		return nil, err
	}
	if len(loads) == 0 {
		return nil, fmt.Errorf("experiment: no load levels")
	}
	out := &CongestionResult{Pair: pair, EU: eu, Cases: opts.NumCases}
	for _, load := range loads {
		if load <= 0 {
			return nil, fmt.Errorf("experiment: non-positive load %d", load)
		}
		p := opts.Params
		p.RequestsPerMachine = gen.IntRange{Min: load, Max: load}
		values := make([]float64, opts.NumCases)
		possibles := make([]float64, opts.NumCases)
		uppers := make([]float64, opts.NumCases)
		var fracSum float64
		for ci := 0; ci < opts.NumCases; ci++ {
			sc, err := gen.Generate(p, opts.BaseSeed+int64(ci))
			if err != nil {
				return nil, fmt.Errorf("experiment: congestion load %d case %d: %w", load, ci, err)
			}
			cfg := core.Config{Heuristic: pair.Heuristic, Criterion: pair.Criterion, EU: eu, Weights: opts.Weights, Obs: opts.Obs}
			res, err := core.Schedule(sc, cfg)
			if err != nil {
				return nil, err
			}
			m := eval.Measure(sc, res, opts.Weights)
			values[ci] = m.WeightedValue
			possibles[ci], _ = bounds.PossibleSatisfy(sc, opts.Weights)
			uppers[ci] = bounds.Upper(sc, opts.Weights)
			if possibles[ci] > 0 {
				fracSum += values[ci] / possibles[ci]
			}
		}
		out.Points = append(out.Points, CongestionPoint{
			RequestsPerMachine: load,
			Value:              StatOf(values),
			PossibleSatisfy:    StatOf(possibles),
			Upper:              StatOf(uppers),
			SatisfiedFraction:  fracSum / float64(opts.NumCases),
		})
	}
	out.Elapsed = time.Since(begin)
	return out, nil
}
