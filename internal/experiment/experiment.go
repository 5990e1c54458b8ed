// Package experiment reproduces the paper's simulation study (§5): a set of
// randomly generated test cases replayed across every heuristic/cost-
// criterion pair and every point of the E-U ratio sweep, with the two lower
// bounds, two upper bounds, and the priority-first baseline measured on the
// same cases. Runs are embarrassingly parallel and spread across a worker
// pool; all randomness is seeded so results are reproducible.
package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"datastaging/internal/bounds"
	"datastaging/internal/core"
	"datastaging/internal/eval"
	"datastaging/internal/gen"
	"datastaging/internal/model"
	"datastaging/internal/obs"
	"datastaging/internal/report/utilization"
	"datastaging/internal/scenario"
)

// SweepPoint is one x-axis value of the E-U ratio sweep.
type SweepPoint struct {
	Label string
	EU    core.EUWeights
}

// StandardSweep returns the paper's eleven sweep points: -inf, log10
// ratios -3 through 5, and inf (§5.4).
func StandardSweep() []SweepPoint {
	out := []SweepPoint{{Label: "-inf", EU: core.EUUrgencyOnly}}
	for l := -3; l <= 5; l++ {
		eu := core.EUFromLog10(float64(l))
		out = append(out, SweepPoint{Label: eu.Label(), EU: eu})
	}
	return append(out, SweepPoint{Label: "inf", EU: core.EUPriorityOnly})
}

// Options configures a study run.
type Options struct {
	// Params generates the test cases; defaults to gen.Default().
	Params gen.Params
	// NumCases is the number of random test cases (paper: 40).
	NumCases int
	// BaseSeed seeds case i with BaseSeed + i.
	BaseSeed int64
	// Weights is the priority weighting scheme.
	Weights model.Weights
	// Sweep lists the E-U points; defaults to StandardSweep().
	Sweep []SweepPoint
	// Pairs lists the heuristic/criterion pairs; defaults to core.Pairs().
	Pairs []core.Pair
	// Parallelism caps concurrent scheduler runs; defaults to GOMAXPROCS.
	Parallelism int
	// Progress, if set, is called after each completed run with the done
	// and total counts. It must be safe for concurrent use.
	Progress func(done, total int)
	// Obs, if set, collects metrics across the study: every scheduler run
	// shares it (the registry is concurrency-safe), so counters like
	// core.dijkstra_runs_total aggregate over the whole sweep, plus
	// experiment.runs_total and the experiment.run_seconds histogram. If it
	// carries a tracer, events from concurrent runs interleave in emission
	// order (the tracer is mutex-protected); set Parallelism to 1 when a
	// readable per-run trace matters more than throughput.
	Obs *obs.Obs
	// Now is the clock SaturationSweep times admission decisions with
	// (default time.Now); a deterministic one makes its latency columns
	// byte-stable.
	Now func() time.Time
}

func (o *Options) fillDefaults() error {
	if o.NumCases <= 0 {
		o.NumCases = 40
	}
	if len(o.Weights) == 0 {
		return fmt.Errorf("experiment: no priority weights")
	}
	if o.Params.Day == 0 {
		o.Params = gen.Default()
	}
	if len(o.Sweep) == 0 {
		o.Sweep = StandardSweep()
	}
	if len(o.Pairs) == 0 {
		o.Pairs = core.Pairs()
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return nil
}

// Stat aggregates one measured quantity over the test cases.
type Stat struct {
	Mean float64
	Min  float64
	Max  float64
	N    int
}

// StatOf reduces a sample to its aggregate.
func StatOf(values []float64) Stat {
	if len(values) == 0 {
		return Stat{}
	}
	s := Stat{Min: values[0], Max: values[0], N: len(values)}
	var sum float64
	for _, v := range values {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(values))
	return s
}

// PointAggregate is the cross-case aggregation of one (pair, sweep point)
// cell.
type PointAggregate struct {
	// Value aggregates the weighted sum of satisfied priorities.
	Value Stat
	// SatisfiedByPriority is the mean satisfied count per priority class.
	SatisfiedByPriority []float64
	// MeanHops is the mean links traversed per satisfied request.
	MeanHops float64
	// MeanElapsed is the mean heuristic execution time.
	MeanElapsed time.Duration
	// MeanDijkstraRuns is the mean number of shortest-path executions.
	MeanDijkstraRuns float64
	// MeanSatisfied and MeanTransfers are mean counts.
	MeanSatisfied float64
	MeanTransfers float64
	// MeanBottleneckBusy is the mean (over cases) busy fraction of each
	// run's most-utilized link — how saturated the schedule's bottleneck
	// was at this sweep point.
	MeanBottleneckBusy float64
}

// PairSweep is one pair's full E-U sweep.
type PairSweep struct {
	Pair   core.Pair
	Points []PointAggregate // indexed like Result.SweepLabels
}

// BestPoint returns the index of the sweep point with the highest mean
// value.
func (ps *PairSweep) BestPoint() int {
	best := 0
	for i := range ps.Points {
		if ps.Points[i].Value.Mean > ps.Points[best].Value.Mean {
			best = i
		}
	}
	return best
}

// Result is the complete study output.
type Result struct {
	Weights     model.Weights
	SweepLabels []string
	Pairs       []PairSweep
	// The four bounds of §5.2 and the §5.4 baseline, aggregated over the
	// same cases (none depend on the E-U ratio).
	Upper                Stat
	PossibleSatisfy      Stat
	RandomDijkstra       Stat
	SingleDijkstraRandom Stat
	PriorityFirst        Stat
	// PriorityFirstByPriority is the baseline's mean satisfied count per
	// class, for the §5.4 comparison.
	PriorityFirstByPriority []float64
	// Cases records how many test cases were averaged.
	Cases int
	// Elapsed is the wall-clock time of the whole study.
	Elapsed time.Duration
}

// PairByName returns the sweep for one heuristic/criterion pair.
func (r *Result) PairByName(h core.Heuristic, c core.Criterion) (*PairSweep, bool) {
	for i := range r.Pairs {
		if r.Pairs[i].Pair.Heuristic == h && r.Pairs[i].Pair.Criterion == c {
			return &r.Pairs[i], true
		}
	}
	return nil, false
}

// Run executes the study.
func Run(opts Options) (*Result, error) {
	begin := time.Now()
	if err := opts.fillDefaults(); err != nil {
		return nil, err
	}
	cases, err := generateCases(opts)
	if err != nil {
		return nil, err
	}

	nP, nS, nC := len(opts.Pairs), len(opts.Sweep), opts.NumCases
	runs := make([]eval.Metrics, nP*nS*nC)
	bneck := make([]float64, nP*nS*nC)
	caseBounds := make([]boundsRow, nC)
	mRuns := opts.Obs.Counter("experiment.runs_total")
	hRunSeconds := opts.Obs.Histogram("experiment.run_seconds", obs.DurationBuckets)

	total := nP*nS*nC + nC
	var done int64
	report := func() {
		if opts.Progress != nil {
			opts.Progress(int(atomic.AddInt64(&done, 1)), total)
		}
	}

	jobs := make(chan func() error)
	errs := make(chan error, 1)
	var wg sync.WaitGroup
	for w := 0; w < opts.Parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobs {
				if err := job(); err != nil {
					select {
					case errs <- err:
					default:
					}
				}
				report()
			}
		}()
	}
	for ci := 0; ci < nC; ci++ {
		ci := ci
		jobs <- func() error { return runBounds(cases[ci], opts, int64(ci), &caseBounds[ci]) }
		for pi := range opts.Pairs {
			for si := range opts.Sweep {
				pi, si := pi, si
				jobs <- func() error {
					cfg := core.Config{
						Heuristic: opts.Pairs[pi].Heuristic,
						Criterion: opts.Pairs[pi].Criterion,
						EU:        opts.Sweep[si].EU,
						Weights:   opts.Weights,
						Obs:       opts.Obs,
					}
					res, err := core.Schedule(cases[ci], cfg)
					if err != nil {
						return fmt.Errorf("case %d %v@%s: %w", ci, opts.Pairs[pi], opts.Sweep[si].Label, err)
					}
					mRuns.Inc()
					hRunSeconds.Observe(res.Elapsed.Seconds())
					runs[(pi*nS+si)*nC+ci] = eval.Measure(cases[ci], res, opts.Weights)
					bneck[(pi*nS+si)*nC+ci] = utilization.Compute(cases[ci], res.Transfers).MaxLinkBusyFraction
					return nil
				}
			}
		}
	}
	close(jobs)
	wg.Wait()
	select {
	case err := <-errs:
		return nil, err
	default:
	}

	return aggregate(opts, cases, runs, bneck, caseBounds, begin), nil
}

func generateCases(opts Options) ([]*scenario.Scenario, error) {
	cases := make([]*scenario.Scenario, opts.NumCases)
	for i := range cases {
		sc, err := gen.Generate(opts.Params, opts.BaseSeed+int64(i))
		if err != nil {
			return nil, fmt.Errorf("experiment: case %d: %w", i, err)
		}
		cases[i] = sc
	}
	return cases, nil
}

type boundsRow struct {
	upper     float64
	possible  float64
	randomDij eval.Metrics
	singleDij eval.Metrics
	priFirst  eval.Metrics
}

func runBounds(sc *scenario.Scenario, opts Options, seed int64, row *boundsRow) error {
	row.upper = bounds.Upper(sc, opts.Weights)
	row.possible, _ = bounds.PossibleSatisfy(sc, opts.Weights)
	rd, err := bounds.RandomDijkstra(sc, opts.Weights, seed)
	if err != nil {
		return err
	}
	row.randomDij = eval.Measure(sc, rd, opts.Weights)
	sd, err := bounds.SingleDijkstraRandom(sc, opts.Weights, seed)
	if err != nil {
		return err
	}
	row.singleDij = eval.Measure(sc, sd, opts.Weights)
	pf, err := bounds.PriorityFirst(sc, opts.Weights)
	if err != nil {
		return err
	}
	row.priFirst = eval.Measure(sc, pf, opts.Weights)
	return nil
}

func aggregate(opts Options, cases []*scenario.Scenario, runs []eval.Metrics, bneck []float64, caseBounds []boundsRow, begin time.Time) *Result {
	nP, nS, nC := len(opts.Pairs), len(opts.Sweep), opts.NumCases
	out := &Result{
		Weights:     opts.Weights,
		SweepLabels: make([]string, nS),
		Pairs:       make([]PairSweep, nP),
		Cases:       nC,
	}
	for i, sp := range opts.Sweep {
		out.SweepLabels[i] = sp.Label
	}
	for pi := range opts.Pairs {
		ps := PairSweep{Pair: opts.Pairs[pi], Points: make([]PointAggregate, nS)}
		for si := 0; si < nS; si++ {
			base := (pi*nS + si) * nC
			ps.Points[si] = aggregatePoint(runs[base:base+nC], bneck[base:base+nC])
		}
		out.Pairs[pi] = ps
	}
	rows := func(get func(*boundsRow) float64) []float64 {
		vals := make([]float64, nC)
		for i := range caseBounds {
			vals[i] = get(&caseBounds[i])
		}
		return vals
	}
	out.Upper = StatOf(rows(func(r *boundsRow) float64 { return r.upper }))
	out.PossibleSatisfy = StatOf(rows(func(r *boundsRow) float64 { return r.possible }))
	out.RandomDijkstra = StatOf(rows(func(r *boundsRow) float64 { return r.randomDij.WeightedValue }))
	out.SingleDijkstraRandom = StatOf(rows(func(r *boundsRow) float64 { return r.singleDij.WeightedValue }))
	out.PriorityFirst = StatOf(rows(func(r *boundsRow) float64 { return r.priFirst.WeightedValue }))
	pfMetrics := make([]eval.Metrics, nC)
	for i := range caseBounds {
		pfMetrics[i] = caseBounds[i].priFirst
	}
	out.PriorityFirstByPriority = meanByPriority(pfMetrics)
	out.Elapsed = time.Since(begin)
	return out
}

func aggregatePoint(ms []eval.Metrics, bneck []float64) PointAggregate {
	values := make([]float64, len(ms))
	var hops, dijkstras, satisfied, transfers, busy float64
	var elapsed time.Duration
	for i := range ms {
		values[i] = ms[i].WeightedValue
		hops += ms[i].MeanHops
		dijkstras += float64(ms[i].DijkstraRuns)
		satisfied += float64(ms[i].SatisfiedCount)
		transfers += float64(ms[i].Transfers)
		elapsed += ms[i].Elapsed
		busy += bneck[i]
	}
	n := float64(len(ms))
	return PointAggregate{
		Value:               StatOf(values),
		SatisfiedByPriority: meanByPriority(ms),
		MeanHops:            hops / n,
		MeanElapsed:         elapsed / time.Duration(len(ms)),
		MeanDijkstraRuns:    dijkstras / n,
		MeanSatisfied:       satisfied / n,
		MeanTransfers:       transfers / n,
		MeanBottleneckBusy:  busy / n,
	}
}

func meanByPriority(ms []eval.Metrics) []float64 {
	classes := 0
	for i := range ms {
		if len(ms[i].ByPriority) > classes {
			classes = len(ms[i].ByPriority)
		}
	}
	out := make([]float64, classes)
	for i := range ms {
		for p, pc := range ms[i].ByPriority {
			out[p] += float64(pc.Satisfied)
		}
	}
	for p := range out {
		out[p] /= float64(len(ms))
	}
	return out
}
