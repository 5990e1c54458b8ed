package core

import (
	"math"
	"time"

	"datastaging/internal/scenario"
)

// scheduleParanoid re-runs Dijkstra for every item on every iteration, the
// implementation the paper describes. The plan cache must produce
// byte-identical schedules.
func scheduleParanoid(sc *scenario.Scenario, cfg Config) (*Result, error) {
	cfg.Paranoid = true
	return Schedule(sc, cfg)
}

// scheduleUnbatched is Schedule with the merged relaxation walk out of reach:
// every invalidated forest is recomputed one by one, whatever the history
// length. The default dispatch must produce byte-identical schedules.
func scheduleUnbatched(sc *scenario.Scenario, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := newPlanner(sc, cfg)
	p.mergedMin = math.MaxInt
	return p.run(cfg, time.Now())
}
