package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"datastaging/internal/bounds"
	"datastaging/internal/core"
	"datastaging/internal/dynamic"
	"datastaging/internal/obs"
	"datastaging/internal/scenario"
	"datastaging/internal/simtime"
)

// SaturationOptions configures one saturation sweep: the spec whose rates
// are scaled, the load multipliers, the base network, and the heuristic
// configuration each replay runs.
type SaturationOptions struct {
	// Spec is the workload shape; each load point replays Spec with every
	// phase rate multiplied by the point's load factor.
	Spec Spec
	// Loads are the offered-load multipliers, in sweep order (conventionally
	// ascending).
	Loads []float64
	// Base contributes the network, horizon, and γ. Its own items (if any)
	// are scheduled too but not counted in the admission rate.
	Base *scenario.Scenario
	// Config is the heuristic/criterion pair each admission epoch runs;
	// Config.Weights also defines the weighted objective.
	Config core.Config
	// Now is the clock used to measure decision latency (default
	// time.Now). Tests inject a deterministic counter so the report is
	// byte-stable.
	Now func() time.Time
}

// SaturationPoint is one load point of the sweep.
type SaturationPoint struct {
	// Load is the offered-load multiplier on the spec's phase rates.
	Load float64 `json:"load"`
	// Arrivals and Requests count the offered work at this load.
	Arrivals int `json:"arrivals"`
	Requests int `json:"requests"`
	// Admitted counts requests satisfied by the final committed schedule;
	// AdmissionRate is Admitted / Requests.
	Admitted      int     `json:"admitted"`
	AdmissionRate float64 `json:"admissionRate"`
	// WeightedValue is the objective achieved; UpperBound is the §5.2
	// everything-ignoring-capacity bound on the same scenario, and
	// Efficiency their ratio — how much of the theoretically available
	// weighted value survived the contention at this load.
	WeightedValue float64 `json:"weightedValue"`
	UpperBound    float64 `json:"upperBound"`
	Efficiency    float64 `json:"efficiency"`
	// P50/P99 are decision-latency percentiles: each request's latency is
	// the wall duration of the admission epoch that first decided it.
	P50 time.Duration `json:"p50DecisionLatency"`
	P99 time.Duration `json:"p99DecisionLatency"`
	// Epochs counts admission epochs (distinct arrival instants).
	Epochs int `json:"epochs"`
}

// SaturationResult is the sweep outcome and the JSON artifact schema.
type SaturationResult struct {
	Spec     string            `json:"spec"`
	Seed     int64             `json:"seed"`
	Machines int               `json:"machines"`
	Scenario string            `json:"scenario"`
	Points   []SaturationPoint `json:"points"`
	// KneeIndex is the first load point past the admission knee, -1 when
	// the sweep never saturates; KneeLoad is its multiplier (0 when none).
	KneeIndex int     `json:"kneeIndex"`
	KneeLoad  float64 `json:"kneeLoad"`
}

// WriteJSON emits the artifact: indented, deterministic field order.
func (r *SaturationResult) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Saturate sweeps offered load over the spec and locates the admission
// knee. Each load point compiles the rate-scaled spec (same seed — load
// points differ only in offered traffic), materializes it over the base
// network, and replays it epoch by epoch through the incremental engine,
// timing every admission epoch. Scheduling results are deterministic for a
// fixed seed; latencies are wall-clock unless Now is injected.
func Saturate(opts SaturationOptions) (*SaturationResult, error) {
	if opts.Base == nil || opts.Base.Network == nil {
		return nil, fmt.Errorf("workload: saturation needs a base scenario")
	}
	if len(opts.Loads) == 0 {
		return nil, fmt.Errorf("workload: saturation needs at least one load point")
	}
	if len(opts.Config.Weights) == 0 {
		return nil, fmt.Errorf("workload: saturation config has no priority weights")
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	machines := opts.Base.Network.NumMachines()
	res := &SaturationResult{
		Spec:      opts.Spec.Name,
		Seed:      opts.Spec.Seed,
		Machines:  machines,
		Scenario:  opts.Base.Name,
		KneeIndex: -1,
	}
	var rates []float64
	for _, load := range opts.Loads {
		if load <= 0 {
			return nil, fmt.Errorf("workload: non-positive load multiplier %v", load)
		}
		pt, err := saturatePoint(opts, load, machines, now)
		if err != nil {
			return nil, fmt.Errorf("workload: load %v: %w", load, err)
		}
		res.Points = append(res.Points, pt)
		rates = append(rates, pt.AdmissionRate)
	}
	if k := Knee(rates); k >= 0 {
		res.KneeIndex, res.KneeLoad = k, res.Points[k].Load
	}
	return res, nil
}

// Knee returns the index of the first admission rate below 0.9 times the
// first one, or -1 when the rates never fall that far.
func Knee(rates []float64) int {
	for i, r := range rates {
		if r < 0.9*rates[0] {
			return i
		}
	}
	return -1
}

func saturatePoint(opts SaturationOptions, load float64, machines int, now func() time.Time) (SaturationPoint, error) {
	arrivals, err := opts.Spec.ScaleRate(load).Compile(machines)
	if err != nil {
		return SaturationPoint{}, err
	}
	tr := NewTrace(opts.Spec.Name, machines, nil, arrivals)
	sc, _, err := tr.Materialize(opts.Base)
	if err != nil {
		return SaturationPoint{}, err
	}
	// Replay the way dynamic.Simulate does — the engine's scenario grows to
	// each arrival as its instant comes (Compile sorts arrivals by instant,
	// so every epoch's scenario is a prefix of sc) — but time each
	// admission epoch and attribute its duration to every request decided
	// in it.
	firstItem := len(opts.Base.Items)
	work := *sc
	work.Items = sc.Items[:firstItem]
	eng, err := dynamic.NewEngine(&work, opts.Config)
	if err != nil {
		return SaturationPoint{}, err
	}
	latencies := make([]time.Duration, 0, NumRequests(arrivals))
	epochs := 0
	// Epoch 0 decides the base items plus any arrival at the epoch itself;
	// each later epoch the arrivals at its instant.
	for at, next := simtime.Instant(0), 0; ; at = arrivals[next].At {
		first := next
		for next < len(arrivals) && arrivals[next].At <= at {
			next++
		}
		work.Items = sc.Items[:firstItem+next]
		begin := now()
		if _, err := eng.ReplanAt(at); err != nil {
			return SaturationPoint{}, err
		}
		d := now().Sub(begin)
		epochs++
		for _, a := range arrivals[first:next] {
			for range a.Requests {
				latencies = append(latencies, d)
			}
		}
		if next == len(arrivals) {
			break
		}
	}

	sat := eng.Satisfied()
	pt := SaturationPoint{
		Load:     load,
		Arrivals: len(arrivals),
		Requests: NumRequests(arrivals),
		Epochs:   epochs,
	}
	var value float64
	for id := range sat {
		value += opts.Config.Weights.Of(sc.Request(id).Priority)
		if int(id.Item) >= firstItem {
			pt.Admitted++
		}
	}
	if pt.Requests > 0 {
		pt.AdmissionRate = float64(pt.Admitted) / float64(pt.Requests)
	}
	pt.WeightedValue = value
	pt.UpperBound = bounds.Upper(sc, opts.Config.Weights)
	if pt.UpperBound > 0 {
		pt.Efficiency = value / pt.UpperBound
	}
	// Quantiles come from the shared histogram interpolation (the same
	// obs.DurationBuckets the admission service's /metrics gauges use), so
	// analyzer and service report comparable numbers.
	secs := make([]float64, len(latencies))
	for i, d := range latencies {
		secs[i] = d.Seconds()
	}
	snap := obs.SnapshotValues(obs.DurationBuckets, secs)
	pt.P50 = time.Duration(snap.Quantile(0.50) * float64(time.Second))
	pt.P99 = time.Duration(snap.Quantile(0.99) * float64(time.Second))
	return pt, nil
}
