package core

import (
	"fmt"
	"time"

	"datastaging/internal/model"
	"datastaging/internal/obs"
	"datastaging/internal/scenario"
	"datastaging/internal/simtime"
	"datastaging/internal/state"
)

// Result is the outcome of one scheduling run.
type Result struct {
	// Config echoes the pair that produced the schedule.
	Config Config
	// Transfers is the committed communication schedule in commit order.
	Transfers []state.Transfer
	// Satisfied maps every satisfied request to its arrival instant.
	Satisfied map[model.RequestID]simtime.Instant
	// Stats counts the work performed.
	Stats Stats
	// Elapsed is the wall-clock heuristic execution time.
	Elapsed time.Duration
}

// WeightedValue returns the paper's objective -E[S]: the sum of W[priority]
// over satisfied requests under the given weights.
func (r *Result) WeightedValue(sc *scenario.Scenario, w model.Weights) float64 {
	var sum float64
	for id := range r.Satisfied {
		sum += w.Of(sc.Request(id).Priority)
	}
	return sum
}

// Schedule runs the configured heuristic/cost-criterion pair on the
// scenario and returns the resulting communication schedule. The scenario
// is only read; every run starts from the pristine resource state.
func Schedule(sc *scenario.Scenario, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	begin := time.Now()
	p := newPlanner(sc, cfg)
	return p.run(cfg, begin)
}

func (p *planner) run(cfg Config, begin time.Time) (*Result, error) {
	for {
		n, c := p.refresh()
		if c == nil {
			break
		}
		p.hCandidates.Observe(float64(n))
		var err error
		switch cfg.Heuristic {
		case PartialPath:
			err = p.commitHop(c.item, c.hop)
		case FullPathOneDest:
			err = p.commitPath(c.item, c.dests[c.bestDest].machine)
		case FullPathAllDests:
			err = p.commitTree(c.item, c)
		}
		if err != nil {
			// The planner only proposes steps its forests prove feasible;
			// a commit failure is an invariant violation, not a scheduling
			// outcome.
			return nil, fmt.Errorf("core: %v iteration %d: %w", cfg.Heuristic, p.stats.Iterations, err)
		}
		p.stats.Iterations++
		p.mIterations.Inc()
		if p.tr.Enabled() {
			p.tr.Emit(obs.Event{Kind: obs.EvIteration, N: n})
		}
	}
	return p.result(cfg, begin), nil
}

func (p *planner) result(cfg Config, begin time.Time) *Result {
	p.stats.ReplanWall = p.replanTimer.Total()
	p.flushScratchMetrics()
	return &Result{
		Config:    cfg,
		Transfers: p.st.Transfers(),
		Satisfied: p.st.Satisfied(),
		Stats:     p.stats,
		Elapsed:   time.Since(begin),
	}
}
