// Package gen generates random data staging scenarios with the exact
// parameterization of the paper's simulation study (§5.3): 10–12 machines,
// out-degrees of 4–7, at most two physical links per ordered machine pair,
// virtual-link windows carved out of a 24-hour day, request loads of 20–40
// requests per machine, and so on. Every knob is a field of Params so that
// the congestion sweep and the unit tests can deviate deliberately.
//
// Generation is fully deterministic given a seed; the experiment harness
// derives one seed per test case so the same 40 instances are replayed for
// every heuristic/cost-criterion pair, exactly as in the paper.
package gen

import (
	"fmt"
	"math/rand"
	"time"

	"datastaging/internal/model"
	"datastaging/internal/scenario"
	"datastaging/internal/simtime"
)

// IntRange is an inclusive integer range [Min, Max] drawn uniformly.
type IntRange struct {
	Min, Max int
}

func (r IntRange) draw(rng *rand.Rand) int {
	if r.Max <= r.Min {
		return r.Min
	}
	return r.Min + rng.Intn(r.Max-r.Min+1)
}

// Int64Range is an inclusive int64 range [Min, Max] drawn uniformly.
type Int64Range struct {
	Min, Max int64
}

func (r Int64Range) draw(rng *rand.Rand) int64 {
	if r.Max <= r.Min {
		return r.Min
	}
	return r.Min + rng.Int63n(r.Max-r.Min+1)
}

// DurRange is an inclusive duration range [Min, Max] drawn uniformly.
type DurRange struct {
	Min, Max time.Duration
}

func (r DurRange) draw(rng *rand.Rand) time.Duration {
	if r.Max <= r.Min {
		return r.Min
	}
	return r.Min + time.Duration(rng.Int63n(int64(r.Max-r.Min)+1))
}

// Params holds every generator knob. The zero value is useless; start from
// Default and override.
type Params struct {
	// Machines is the machine count range (paper: 10–12).
	Machines IntRange
	// CapacityBytes is the per-machine storage range (paper: 10 MB–20 GB).
	CapacityBytes Int64Range
	// OutDegree is the per-machine outbound degree range: the number of
	// distinct machines it has physical links toward (paper: 4–7, capped
	// at machines-1).
	OutDegree IntRange
	// MaxPhysicalPerPair caps the physical links for one ordered machine
	// pair (paper: 2). Each pair that is connected gets 1..Max links.
	MaxPhysicalPerPair int
	// BandwidthBPS is the physical-link bandwidth range in bits/second
	// (paper: 10 Kbit/s–1.5 Mbit/s).
	BandwidthBPS Int64Range
	// Latency is the fixed per-transfer overhead range (paper: unspecified,
	// default zero).
	Latency DurRange
	// WindowDurations are the virtual-link window lengths, one of which is
	// drawn per physical link (paper: 30 m, 1 h, 2 h, 4 h).
	WindowDurations []time.Duration
	// AvailablePercents are the candidate percentages of the day a
	// physical link is up (paper: 50–100 in steps of 10).
	AvailablePercents []int
	// Day is the period windows are laid out in (paper: 24 h).
	Day time.Duration
	// RequestsPerMachine scales the total request count: total requests is
	// drawn from this range times the machine count (paper: 20–40).
	RequestsPerMachine IntRange
	// SourcesPerItem and DestsPerItem bound the fan-in/fan-out of one item
	// (paper: at most 5 of each).
	SourcesPerItem IntRange
	DestsPerItem   IntRange
	// SizeBytes is the data item size range (paper: 10 KB–100 MB).
	SizeBytes Int64Range
	// ItemStart is the range of item availability times (paper: 0–60 min).
	ItemStart DurRange
	// DeadlineAfterStart is how long after the item's earliest
	// availability a request's deadline falls (paper: 15–60 min).
	DeadlineAfterStart DurRange
	// GarbageCollect is γ (paper: 6 min).
	GarbageCollect time.Duration
	// Priorities is the number of priority classes drawn uniformly
	// (paper: 3).
	Priorities int
	// SerialTransfers enables per-machine port serialization in generated
	// scenarios (the §3 future-work relaxation; the paper's evaluation
	// assumes parallel sends, so the default is off).
	SerialTransfers bool
}

// Default returns the paper's §5.3 parameterization.
func Default() Params {
	return Params{
		Machines:           IntRange{Min: 10, Max: 12},
		CapacityBytes:      Int64Range{Min: 10 << 20, Max: 20 << 30},
		OutDegree:          IntRange{Min: 4, Max: 7},
		MaxPhysicalPerPair: 2,
		BandwidthBPS:       Int64Range{Min: 10_000, Max: 1_500_000},
		Latency:            DurRange{},
		WindowDurations: []time.Duration{
			30 * time.Minute, time.Hour, 2 * time.Hour, 4 * time.Hour,
		},
		AvailablePercents:  []int{50, 60, 70, 80, 90, 100},
		Day:                24 * time.Hour,
		RequestsPerMachine: IntRange{Min: 20, Max: 40},
		SourcesPerItem:     IntRange{Min: 1, Max: 5},
		DestsPerItem:       IntRange{Min: 1, Max: 5},
		SizeBytes:          Int64Range{Min: 10 << 10, Max: 100 << 20},
		ItemStart:          DurRange{Min: 0, Max: time.Hour},
		DeadlineAfterStart: DurRange{Min: 15 * time.Minute, Max: time.Hour},
		GarbageCollect:     6 * time.Minute,
		Priorities:         model.NumPriorities,
	}
}

// Generate builds one scenario from the parameters, deterministically for a
// given seed. The returned scenario always validates and its network is
// always strongly connected.
func Generate(p Params, seed int64) (*scenario.Scenario, error) {
	if err := checkParams(p); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	net, err := generateNetwork(p, rng)
	if err != nil {
		return nil, err
	}
	items := generateItems(p, rng, net.NumMachines())
	s := &scenario.Scenario{
		Name:            fmt.Sprintf("gen-seed%d", seed),
		Network:         net,
		Items:           items,
		GarbageCollect:  p.GarbageCollect,
		Horizon:         simtime.At(p.Day),
		SerialTransfers: p.SerialTransfers,
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("gen: generated scenario invalid: %w", err)
	}
	return s, nil
}

// NetworkOnly generates just the network side of a scenario — machines,
// links, horizon, γ — with an empty request book. For a given seed the
// network is identical to Generate's (items are drawn after the network,
// so dropping them does not disturb the stream). This is the base the
// workload layer materializes arrival traces over: topology from the
// paper's generator, traffic from a multi-phase spec.
func NetworkOnly(p Params, seed int64) (*scenario.Scenario, error) {
	if err := checkParams(p); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	net, err := generateNetwork(p, rng)
	if err != nil {
		return nil, err
	}
	s := &scenario.Scenario{
		Name:            fmt.Sprintf("net-seed%d", seed),
		Network:         net,
		GarbageCollect:  p.GarbageCollect,
		Horizon:         simtime.At(p.Day),
		SerialTransfers: p.SerialTransfers,
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("gen: generated network invalid: %w", err)
	}
	return s, nil
}

func checkParams(p Params) error {
	switch {
	case p.Machines.Min < 2:
		return fmt.Errorf("gen: need at least 2 machines, got min %d", p.Machines.Min)
	case p.MaxPhysicalPerPair < 1:
		return fmt.Errorf("gen: MaxPhysicalPerPair must be >= 1")
	case p.BandwidthBPS.Min <= 0:
		return fmt.Errorf("gen: bandwidth must be positive")
	case len(p.WindowDurations) == 0:
		return fmt.Errorf("gen: no window durations")
	case len(p.AvailablePercents) == 0:
		return fmt.Errorf("gen: no availability percentages")
	case p.Day <= 0:
		return fmt.Errorf("gen: non-positive day length")
	case p.SizeBytes.Min <= 0:
		return fmt.Errorf("gen: item sizes must be positive")
	case p.Priorities < 1:
		return fmt.Errorf("gen: need at least one priority class")
	case p.SourcesPerItem.Min < 1 || p.DestsPerItem.Min < 1:
		return fmt.Errorf("gen: items need at least one source and one destination")
	}
	for _, d := range p.WindowDurations {
		if d <= 0 || d > p.Day {
			return fmt.Errorf("gen: window duration %v outside (0, day]", d)
		}
	}
	for _, pct := range p.AvailablePercents {
		if pct < 1 || pct > 100 {
			return fmt.Errorf("gen: availability percent %d outside [1,100]", pct)
		}
	}
	return nil
}
