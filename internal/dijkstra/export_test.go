package dijkstra

import (
	"datastaging/internal/model"
	"datastaging/internal/simtime"
)

// IsRoot reports whether machine m holds the item in the planned forest.
func (p *Plan) IsRoot(m model.MachineID) bool {
	return p.Arrival[m] != simtime.Never && p.Pred[m] == NoMachine
}

// Add accumulates other into s (high-water marks take the max).
func (s *ScratchStats) Add(other ScratchStats) {
	s.Computes += other.Computes
	s.Grows += other.Grows
	s.HeapHighWater = max(s.HeapHighWater, other.HeapHighWater)
}
