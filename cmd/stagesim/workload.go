package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"datastaging/internal/cliconf"
	"datastaging/internal/core"
	"datastaging/internal/dynamic"
	"datastaging/internal/experiment"
	"datastaging/internal/gen"
	"datastaging/internal/model"
	"datastaging/internal/report"
	"datastaging/internal/scenario"
	"datastaging/internal/state"
	"datastaging/internal/workload"
	"encoding/json"
)

// runWorkloadModes dispatches the workload-layer modes (-emit-trace,
// -replay, -saturation). They are standalone: the study does not run.
func runWorkloadModes(out io.Writer, o options, w model.Weights) error {
	if o.emitTrace != "" {
		if err := runEmitTrace(out, o); err != nil {
			return err
		}
	}
	if o.replay != "" {
		if err := runReplay(out, o, w); err != nil {
			return err
		}
	}
	if o.saturation {
		if err := runSaturation(out, o, w); err != nil {
			return err
		}
	}
	return nil
}

// baseNetwork loads -net (items stripped) or generates the paper network
// from -seed. Workload modes lay their own traffic over it.
func baseNetwork(o options) (*scenario.Scenario, error) {
	if o.netPath == "" {
		return gen.NetworkOnly(gen.Default(), o.seed)
	}
	sc, err := cliconf.LoadScenario(o.netPath, o.seed)
	if err != nil {
		return nil, fmt.Errorf("-net: %w", err)
	}
	sc.Items = nil
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("-net: network invalid without its items: %w", err)
	}
	return sc, nil
}

// workloadConfig is the reference configuration every workload mode runs:
// full path/one destination with C4 at log10(E-U)=2, the study's best pair.
func workloadConfig(o options, w model.Weights) core.Config {
	return core.Config{
		Heuristic: core.FullPathOneDest,
		Criterion: core.C4,
		EU:        core.EUFromLog10(2),
		Weights:   w,
		Obs:       o.obs,
	}
}

func runEmitTrace(out io.Writer, o options) error {
	spec, err := workload.Builtin(o.satSpec)
	if err != nil {
		return err
	}
	base, err := baseNetwork(o)
	if err != nil {
		return err
	}
	machines := base.Network.NumMachines()
	arrivals, err := spec.Compile(machines)
	if err != nil {
		return err
	}
	tr := workload.NewTrace(spec.Name, machines, &spec, arrivals)
	if err := workload.WriteTraceFile(o.emitTrace, tr); err != nil {
		return err
	}
	fmt.Fprintf(out, "trace: %s — spec %s seed %d, %d machines, %d arrivals, %d requests\n",
		o.emitTrace, spec.Name, spec.Seed, machines, len(arrivals), workload.NumRequests(arrivals))
	return nil
}

// replayOutcome is the -replay-out artifact: everything two replay paths
// must agree on byte for byte.
type replayOutcome struct {
	Trace         string           `json:"trace"`
	Scenario      string           `json:"scenario"`
	Arrivals      int              `json:"arrivals"`
	Requests      int              `json:"requests"`
	Satisfied     int              `json:"satisfied"`
	WeightedValue float64          `json:"weightedValue"`
	Replans       int              `json:"replans"`
	Transfers     []state.Transfer `json:"transfers"`
}

func runReplay(out io.Writer, o options, w model.Weights) error {
	tr, err := workload.ReadTraceFile(o.replay)
	if err != nil {
		return err
	}
	base, err := baseNetwork(o)
	if err != nil {
		return err
	}
	if got := base.Network.NumMachines(); got < tr.Machines {
		return fmt.Errorf("-replay: trace wants >= %d machines, base network has %d", tr.Machines, got)
	}
	sc, events, err := tr.Materialize(base)
	if err != nil {
		return err
	}
	res, err := dynamic.Simulate(sc, workloadConfig(o, w), events)
	if err != nil {
		return err
	}
	var value float64
	for id := range res.Satisfied {
		value += w.Of(sc.Request(id).Priority)
	}
	ro := replayOutcome{
		Trace:         tr.Name,
		Scenario:      base.Name,
		Arrivals:      len(tr.Arrivals),
		Requests:      workload.NumRequests(tr.Arrivals),
		Satisfied:     len(res.Satisfied),
		WeightedValue: value,
		Replans:       res.Replans,
		Transfers:     res.Transfers,
	}
	fmt.Fprintf(out, "replay: trace %s over %s: %d arrivals, %d/%d requests satisfied, %d transfers, weighted value %.1f, %d replans\n",
		ro.Trace, ro.Scenario, ro.Arrivals, ro.Satisfied, ro.Requests, len(ro.Transfers), ro.WeightedValue, ro.Replans)
	if o.replayOut != "" {
		b, err := json.MarshalIndent(&ro, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.replayOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "(replay json: %s)\n", o.replayOut)
	}
	return nil
}

func parseLoads(s string) ([]float64, error) {
	var loads []float64
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -sat-loads %q: %w", s, err)
		}
		loads = append(loads, v)
	}
	if len(loads) == 0 {
		return nil, fmt.Errorf("empty -sat-loads")
	}
	if !sort.Float64sAreSorted(loads) {
		return nil, fmt.Errorf("-sat-loads must be ascending, got %v", loads)
	}
	return loads, nil
}

// fakeClock is a deterministic stand-in for time.Now: each call advances
// one millisecond, so every admission epoch "takes" exactly 1 ms and the
// latency columns are byte-stable across runs and machines.
func fakeClock() func() time.Time {
	var ticks int64
	return func() time.Time {
		ticks++
		return time.Unix(0, ticks*int64(time.Millisecond))
	}
}

func runSaturation(out io.Writer, o options, w model.Weights) error {
	spec, err := workload.Builtin(o.satSpec)
	if err != nil {
		return err
	}
	loads, err := parseLoads(o.satLoads)
	if err != nil {
		return err
	}
	if o.satCases > 0 {
		return runSaturationSweep(out, o, w, spec, loads)
	}
	base, err := baseNetwork(o)
	if err != nil {
		return err
	}
	sopts := workload.SaturationOptions{
		Spec:   spec,
		Loads:  loads,
		Base:   base,
		Config: workloadConfig(o, w),
	}
	if o.satFakeClock {
		sopts.Now = fakeClock()
	}
	res, err := workload.Saturate(sopts)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nSaturation sweep (spec %s over %s, full_one/C4 at log10(E-U)=2):\n", spec.Name, base.Name)
	h, rows := report.SaturationRows(res)
	if err := report.Table(out, h, rows); err != nil {
		return err
	}
	if res.KneeIndex < 0 {
		fmt.Fprintln(out, "knee: not reached (admission rate stayed within 90% of the unloaded rate)")
	} else {
		fmt.Fprintf(out, "knee: load %v (admission rate %.3f)\n", res.KneeLoad, res.Points[res.KneeIndex].AdmissionRate)
	}
	if o.satOut != "" {
		f, err := os.Create(o.satOut)
		if err != nil {
			return err
		}
		if err := res.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "(saturation json: %s)\n", o.satOut)
	}
	return nil
}

func runSaturationSweep(out io.Writer, o options, w model.Weights, spec workload.Spec, loads []float64) error {
	if !o.quiet {
		fmt.Fprintf(os.Stderr, "running saturation sweep (%d cases)...\n", o.satCases)
	}
	opts := experiment.Options{Params: gen.Default(), NumCases: o.satCases, BaseSeed: o.seed,
		Weights: w, Obs: o.obs}
	if o.satFakeClock {
		opts.Now = fakeClock()
	}
	pair := core.Pair{Heuristic: core.FullPathOneDest, Criterion: core.C4}
	agg, err := experiment.SaturationSweep(opts, spec, loads, pair, core.EUFromLog10(2))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nSaturation sweep (spec %s, %d networks, full_one/C4 at log10(E-U)=2):\n", spec.Name, o.satCases)
	h, rows := report.SaturationAggregateRows(agg)
	if err := report.Table(out, h, rows); err != nil {
		return err
	}
	if agg.KneeIndex < 0 {
		fmt.Fprintln(out, "knee: not reached on the mean admission-rate curve")
	} else {
		fmt.Fprintf(out, "knee: load %v (mean admission rate %.3f)\n", agg.KneeLoad, agg.Points[agg.KneeIndex].AdmissionRate.Mean)
	}
	if o.satOut != "" {
		b, err := json.MarshalIndent(agg, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.satOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "(saturation json: %s)\n", o.satOut)
	}
	return nil
}
