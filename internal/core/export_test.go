package core

import (
	"datastaging/internal/scenario"
)

// scheduleParanoid re-runs Dijkstra for every item on every iteration, the
// implementation the paper describes. The plan cache must produce
// byte-identical schedules.
func scheduleParanoid(sc *scenario.Scenario, cfg Config) (*Result, error) {
	cfg.Paranoid = true
	return Schedule(sc, cfg)
}
