// Package workload generates realistic request streams for the data
// staging system. The §5.3 generator (internal/gen) draws every request
// from one stationary distribution; real inter-datacenter traffic is
// bursty, diurnal, and cohort-structured. This package adds the missing
// temporal axis as three composable layers:
//
//   - A declarative multi-phase arrival Spec: consecutive time windows,
//     each with its own Poisson arrival rate, priority mix, item-size
//     range, deadline tightness, and fan-in/fan-out. Compile turns a spec
//     into a deterministic, seeded arrival stream.
//   - A canonical versioned trace format (.trace.json) with a writer and a
//     strict, typed-error reader, so any generated or live-captured
//     workload replays bit-identically through dynamic.Simulate, the
//     stagesim CLI, and the stagesvc HTTP path.
//   - A saturation analyzer that sweeps offered load over a spec, finds
//     the admission-rate knee, and reports p99 decision latency and
//     weighted-value efficiency per load point.
//
// Everything is deterministic for a fixed seed: the same spec compiled
// against the same machine count yields byte-identical traces, and the
// same trace materialized over the same network yields the identical
// scenario and event list no matter which driver replays it.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"datastaging/internal/dynamic"
	"datastaging/internal/model"
	"datastaging/internal/scenario"
	"datastaging/internal/simtime"
)

// Phase is one window of a multi-phase arrival spec. Phases are laid out
// back to back starting at the scheduling epoch; an arrival's properties
// are drawn from the phase it falls in.
type Phase struct {
	// Name labels the phase; it is carried through to each arrival for
	// provenance (trace version 2).
	Name string `json:"name,omitempty"`
	// Duration is the window length. Phases abut: phase i+1 starts where
	// phase i ends.
	Duration time.Duration `json:"duration"`
	// PerHour is the mean Poisson arrival rate inside the window. Zero is
	// a legal quiet period.
	PerHour float64 `json:"perHour"`
	// PriorityWeights draws each request's priority class: class p is
	// chosen with probability PriorityWeights[p] / sum. Length fixes the
	// number of classes.
	PriorityWeights []float64 `json:"priorityWeights"`
	// SizeMinBytes/SizeMaxBytes bound the log-uniform item-size draw.
	SizeMinBytes int64 `json:"sizeMinBytes"`
	SizeMaxBytes int64 `json:"sizeMaxBytes"`
	// SlackMin/SlackMax bound the deadline tightness: each request's
	// deadline is its arrival instant plus a uniform slack draw.
	SlackMin time.Duration `json:"slackMin"`
	SlackMax time.Duration `json:"slackMax"`
	// MaxSources/MaxDests bound an arrival's fan-in and fan-out (both
	// default to 1). Sources and destinations are always disjoint.
	MaxSources int `json:"maxSources,omitempty"`
	MaxDests   int `json:"maxDests,omitempty"`
}

// Spec is a declarative multi-phase workload description. The zero value
// is invalid; build one by hand or start from a Builtin.
type Spec struct {
	Name string `json:"name"`
	// Seed makes compilation deterministic. Each phase derives its own
	// sub-stream, so editing one phase does not reshuffle the others.
	Seed   int64   `json:"seed"`
	Phases []Phase `json:"phases"`
}

// Validate rejects malformed specs with a descriptive error.
func (s *Spec) Validate() error {
	if len(s.Phases) == 0 {
		return fmt.Errorf("workload: spec %q has no phases", s.Name)
	}
	for i, ph := range s.Phases {
		switch {
		case ph.Duration <= 0:
			return fmt.Errorf("workload: phase %d: non-positive duration %v", i, ph.Duration)
		case ph.PerHour < 0 || math.IsNaN(ph.PerHour) || math.IsInf(ph.PerHour, 0):
			return fmt.Errorf("workload: phase %d: bad rate %v", i, ph.PerHour)
		case ph.SizeMinBytes <= 0 || ph.SizeMaxBytes < ph.SizeMinBytes:
			return fmt.Errorf("workload: phase %d: bad size range [%d, %d]", i, ph.SizeMinBytes, ph.SizeMaxBytes)
		case ph.SlackMin <= 0 || ph.SlackMax < ph.SlackMin:
			return fmt.Errorf("workload: phase %d: bad slack range [%v, %v]", i, ph.SlackMin, ph.SlackMax)
		case ph.MaxSources < 0 || ph.MaxDests < 0:
			return fmt.Errorf("workload: phase %d: negative fan bound", i)
		case len(ph.PriorityWeights) == 0:
			return fmt.Errorf("workload: phase %d: no priority weights", i)
		}
		var sum float64
		for p, w := range ph.PriorityWeights {
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("workload: phase %d: bad priority weight %v for class %d", i, w, p)
			}
			sum += w
		}
		if sum <= 0 {
			return fmt.Errorf("workload: phase %d: priority weights sum to zero", i)
		}
	}
	return nil
}

// ScaleRate returns a copy of the spec with every phase's arrival rate
// multiplied by f. The saturation analyzer sweeps offered load this way.
func (s Spec) ScaleRate(f float64) Spec {
	out := s
	out.Phases = append([]Phase(nil), s.Phases...)
	for i := range out.Phases {
		out.Phases[i].PerHour *= f
	}
	return out
}

// ArrivalSource is one initial copy of an arriving item.
type ArrivalSource struct {
	Machine int `json:"machine"`
	// Available is when the copy exists; generated arrivals use the
	// arrival instant itself.
	Available simtime.Instant `json:"available"`
}

// ArrivalRequest is one deadline-bearing destination of an arrival.
type ArrivalRequest struct {
	Machine  int             `json:"machine"`
	Deadline simtime.Instant `json:"deadline"`
	Priority int             `json:"priority"`
}

// Arrival is one item entering the system at instant At: the shared
// currency of the workload layer. It converts losslessly to a scenario
// item plus a dynamic.ItemRelease event (offline replay) and to a
// serve.Submission (online replay).
type Arrival struct {
	At   simtime.Instant `json:"at"`
	Name string          `json:"name,omitempty"`
	// Phase records which spec phase produced the arrival (trace v2).
	Phase     string           `json:"phase,omitempty"`
	SizeBytes int64            `json:"sizeBytes"`
	Sources   []ArrivalSource  `json:"sources"`
	Requests  []ArrivalRequest `json:"requests"`
}

// Item converts the arrival into the scenario item it becomes once known
// to the scheduler.
func (a *Arrival) Item(id model.ItemID) model.Item {
	it := model.Item{ID: id, Name: a.Name, SizeBytes: a.SizeBytes}
	if it.Name == "" {
		it.Name = fmt.Sprintf("arrival-%d", id)
	}
	for _, src := range a.Sources {
		it.Sources = append(it.Sources, model.Source{
			Machine: model.MachineID(src.Machine), Available: src.Available,
		})
	}
	for _, rq := range a.Requests {
		it.Requests = append(it.Requests, model.Request{
			Machine:  model.MachineID(rq.Machine),
			Deadline: rq.Deadline,
			Priority: model.Priority(rq.Priority),
		})
	}
	return it
}

// validate mirrors the checks the trace reader and the admission service
// apply, so a compiled arrival is accepted by every replay path.
func (a *Arrival) validate(machines int) error {
	switch {
	case a.At < 0:
		return fmt.Errorf("negative arrival instant %v", a.At)
	case a.SizeBytes <= 0:
		return fmt.Errorf("non-positive size %d", a.SizeBytes)
	case len(a.Sources) == 0:
		return fmt.Errorf("no sources")
	case len(a.Requests) == 0:
		return fmt.Errorf("no requests")
	}
	srcs := make(map[int]bool, len(a.Sources))
	for _, src := range a.Sources {
		if src.Machine < 0 || src.Machine >= machines {
			return fmt.Errorf("source machine %d out of range [0,%d)", src.Machine, machines)
		}
		if srcs[src.Machine] {
			return fmt.Errorf("duplicate source machine %d", src.Machine)
		}
		if src.Available < 0 {
			return fmt.Errorf("negative availability %v", src.Available)
		}
		srcs[src.Machine] = true
	}
	dests := make(map[int]bool, len(a.Requests))
	for _, rq := range a.Requests {
		if rq.Machine < 0 || rq.Machine >= machines {
			return fmt.Errorf("request machine %d out of range [0,%d)", rq.Machine, machines)
		}
		if srcs[rq.Machine] {
			return fmt.Errorf("request machine %d is also a source", rq.Machine)
		}
		if dests[rq.Machine] {
			return fmt.Errorf("duplicate request machine %d", rq.Machine)
		}
		dests[rq.Machine] = true
		if rq.Priority < 0 {
			return fmt.Errorf("negative priority %d", rq.Priority)
		}
		if rq.Deadline <= 0 {
			return fmt.Errorf("deadline %v not after the epoch", rq.Deadline)
		}
	}
	return nil
}

// NumRequests sums the request counts of all arrivals.
func NumRequests(arrivals []Arrival) int {
	n := 0
	for i := range arrivals {
		n += len(arrivals[i].Requests)
	}
	return n
}

// Compile turns the spec into a deterministic arrival stream against a
// network of the given machine count. Arrivals are sorted by instant (ties
// keep phase order), which is the canonical trace order and the submission
// order every replay path uses.
func (s Spec) Compile(machines int) ([]Arrival, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if machines < 2 {
		return nil, fmt.Errorf("workload: need at least 2 machines, got %d", machines)
	}
	var out []Arrival
	var start time.Duration
	for pi, ph := range s.Phases {
		// A per-phase sub-stream: editing one phase leaves the draws of
		// every other phase untouched.
		rng := rand.New(rand.NewSource(s.Seed + int64(pi)*0x9E3779B9))
		if ph.PerHour > 0 {
			mean := float64(time.Hour) / ph.PerHour
			gap := func() time.Duration {
				g := time.Duration(rng.ExpFloat64() * mean)
				if g < time.Nanosecond {
					g = time.Nanosecond // keep time strictly advancing
				}
				return g
			}
			for t := start + gap(); t < start+ph.Duration; t += gap() {
				out = append(out, drawArrival(ph, rng, machines, simtime.At(t)))
			}
		}
		start += ph.Duration
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].At < out[b].At })
	for i := range out {
		out[i].Name = fmt.Sprintf("%s-%d", nameOr(s.Name, "w"), i)
		if err := out[i].validate(machines); err != nil {
			return nil, fmt.Errorf("workload: compiled arrival %d invalid: %w", i, err)
		}
	}
	return out, nil
}

func nameOr(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

func drawArrival(ph Phase, rng *rand.Rand, machines int, at simtime.Instant) Arrival {
	ns, nd := ph.MaxSources, ph.MaxDests
	if ns < 1 {
		ns = 1
	}
	if nd < 1 {
		nd = 1
	}
	if ns > 1 {
		ns = 1 + rng.Intn(ns)
	}
	if nd > 1 {
		nd = 1 + rng.Intn(nd)
	}
	// Sources and destinations must be distinct machines.
	if ns+nd > machines {
		ns = 1
		if nd > machines-1 {
			nd = machines - 1
		}
	}
	perm := rng.Perm(machines)
	a := Arrival{At: at, Phase: ph.Name, SizeBytes: drawSize(ph, rng)}
	for _, m := range perm[:ns] {
		a.Sources = append(a.Sources, ArrivalSource{Machine: m, Available: at})
	}
	for _, m := range perm[ns : ns+nd] {
		a.Requests = append(a.Requests, ArrivalRequest{
			Machine:  m,
			Deadline: at.Add(drawSlack(ph, rng)),
			Priority: drawPriority(ph, rng),
		})
	}
	return a
}

func drawSize(ph Phase, rng *rand.Rand) int64 {
	if ph.SizeMaxBytes <= ph.SizeMinBytes {
		return ph.SizeMinBytes
	}
	lo, hi := float64(ph.SizeMinBytes), float64(ph.SizeMaxBytes)
	// Log-uniform: small items common, large items rare — the shape a
	// shared staging network actually sees.
	return int64(lo * math.Pow(hi/lo, rng.Float64()))
}

func drawSlack(ph Phase, rng *rand.Rand) time.Duration {
	if ph.SlackMax <= ph.SlackMin {
		return ph.SlackMin
	}
	return ph.SlackMin + time.Duration(rng.Int63n(int64(ph.SlackMax-ph.SlackMin)))
}

func drawPriority(ph Phase, rng *rand.Rand) int {
	var sum float64
	for _, w := range ph.PriorityWeights {
		sum += w
	}
	x := rng.Float64() * sum
	for p, w := range ph.PriorityWeights {
		if x < w {
			return p
		}
		x -= w
	}
	return len(ph.PriorityWeights) - 1
}

// Materialize turns a trace into the offline replay inputs: a copy of the
// base scenario with the arrivals appended as items (in trace order, with
// sequential IDs — the same numbering the admission service assigns in
// submission order) and the ItemRelease events for every arrival after the
// epoch. The base scenario contributes the network, horizon, and
// garbage-collection policy; it is not mutated.
func (tr *Trace) Materialize(base *scenario.Scenario) (*scenario.Scenario, []dynamic.Event, error) {
	if base == nil || base.Network == nil {
		return nil, nil, fmt.Errorf("workload: materialize needs a base scenario with a network")
	}
	if n := base.Network.NumMachines(); n < tr.Machines {
		return nil, nil, fmt.Errorf("workload: trace %q wants %d machines, base network has %d",
			tr.Name, tr.Machines, n)
	}
	sc := *base
	sc.Items = append([]model.Item(nil), base.Items...)
	if tr.Name != "" {
		sc.Name = fmt.Sprintf("%s+%s", nameOr(base.Name, "base"), tr.Name)
	}
	var events []dynamic.Event
	for i := range tr.Arrivals {
		a := &tr.Arrivals[i]
		id := model.ItemID(len(sc.Items))
		sc.Items = append(sc.Items, a.Item(id))
		if a.At > 0 {
			events = append(events, dynamic.Event{At: a.At, Kind: dynamic.ItemRelease, Item: id})
		}
	}
	if err := sc.Validate(); err != nil {
		return nil, nil, fmt.Errorf("workload: materialized scenario invalid: %w", err)
	}
	return &sc, events, nil
}
