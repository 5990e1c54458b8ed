package experiment

import (
	"fmt"
	"time"

	"datastaging/internal/core"
	"datastaging/internal/gen"
	"datastaging/internal/workload"
)

// SaturationAggPoint is one load point of the cross-case saturation
// aggregate.
type SaturationAggPoint struct {
	Load float64 `json:"load"`
	// MeanOffered is the mean offered request count at this load.
	MeanOffered float64 `json:"meanOffered"`
	// AdmissionRate and Efficiency aggregate the per-case values.
	AdmissionRate Stat `json:"admissionRate"`
	Efficiency    Stat `json:"efficiency"`
	// MeanP99 is the mean (over cases) p99 decision latency.
	MeanP99 time.Duration `json:"meanP99DecisionLatency"`
}

// SaturationAggregate is a saturation sweep averaged over NumCases
// generated networks, the cross-case counterpart of
// workload.SaturationResult.
type SaturationAggregate struct {
	Spec   string               `json:"spec"`
	Cases  int                  `json:"cases"`
	Points []SaturationAggPoint `json:"points"`
	// KneeIndex/KneeLoad locate the knee on the mean admission-rate
	// curve (-1/0 when the sweep never saturates).
	KneeIndex int     `json:"kneeIndex"`
	KneeLoad  float64 `json:"kneeLoad"`
}

// SaturationSweep runs the saturation analyzer over NumCases base networks
// (generated from Params with seeds BaseSeed+i, items stripped) and
// aggregates admission rate, weighted-value efficiency, and decision
// latency per load point. Case i compiles the spec with seed Spec.Seed+i so
// the cases see different-but-deterministic arrival streams.
func SaturationSweep(opts Options, spec workload.Spec, loads []float64, pair core.Pair, eu core.EUWeights) (*SaturationAggregate, error) {
	if err := opts.fillDefaults(); err != nil {
		return nil, err
	}
	if len(loads) == 0 {
		return nil, fmt.Errorf("experiment: no saturation loads")
	}
	cfg := core.Config{Heuristic: pair.Heuristic, Criterion: pair.Criterion, EU: eu,
		Weights: opts.Weights, Obs: opts.Obs}

	perCase := make([]*workload.SaturationResult, opts.NumCases)
	for ci := 0; ci < opts.NumCases; ci++ {
		base, err := gen.NetworkOnly(opts.Params, opts.BaseSeed+int64(ci))
		if err != nil {
			return nil, err
		}
		caseSpec := spec
		caseSpec.Seed += int64(ci)
		res, err := workload.Saturate(workload.SaturationOptions{
			Spec: caseSpec, Loads: loads, Base: base, Config: cfg, Now: opts.Now,
		})
		if err != nil {
			return nil, fmt.Errorf("experiment: saturation case %d: %w", ci, err)
		}
		perCase[ci] = res
		if opts.Progress != nil {
			opts.Progress(ci+1, opts.NumCases)
		}
	}

	agg := &SaturationAggregate{Spec: spec.Name, Cases: opts.NumCases, KneeIndex: -1}
	means := make([]float64, len(loads))
	for li, load := range loads {
		rates := make([]float64, opts.NumCases)
		effs := make([]float64, opts.NumCases)
		var offered float64
		var p99 time.Duration
		for ci, res := range perCase {
			pt := res.Points[li]
			rates[ci] = pt.AdmissionRate
			effs[ci] = pt.Efficiency
			offered += float64(pt.Requests)
			p99 += pt.P99
		}
		agg.Points = append(agg.Points, SaturationAggPoint{
			Load:          load,
			MeanOffered:   offered / float64(opts.NumCases),
			AdmissionRate: StatOf(rates),
			Efficiency:    StatOf(effs),
			MeanP99:       p99 / time.Duration(opts.NumCases),
		})
		means[li] = agg.Points[li].AdmissionRate.Mean
	}
	if k := workload.Knee(means); k >= 0 {
		agg.KneeIndex, agg.KneeLoad = k, loads[k]
	}
	return agg, nil
}
