// Command stagesim reproduces the paper's simulation study: it generates
// the randomized BADD-like test cases, runs every heuristic/cost-criterion
// pair across the E-U ratio sweep, and prints the figures and tables of the
// evaluation section (plus the technical-report extras and the future-work
// congestion sweep).
//
// Usage:
//
//	stagesim [-cases 40] [-seed 1] [-weights 1,10,100|1,5,10|both]
//	         [-figures 2,3,4,5] [-extras] [-baseline] [-congestion]
//	         [-csv DIR] [-height 16] [-quiet]
//	         [-parallel N]
//	         [-metrics-out FILE] [-trace-out FILE]
//	         [-chrome-trace-out FILE] [-introspect-addr ADDR]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"datastaging/internal/core"
	"datastaging/internal/experiment"
	"datastaging/internal/gen"
	"datastaging/internal/model"
	"datastaging/internal/obs"
	"datastaging/internal/obs/chrometrace"
	"datastaging/internal/obs/introspect"
	"datastaging/internal/report"
	"datastaging/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "stagesim:", err)
		os.Exit(1)
	}
}

type options struct {
	cases          int
	seed           int64
	weights        string
	figures        string
	netPath        string
	emitTrace      string
	replay         string
	replayOut      string
	saturation     bool
	satSpec        string
	satLoads       string
	satCases       int
	satOut         string
	satFakeClock   bool
	extras         bool
	baseline       bool
	congestion     bool
	gamma          bool
	failures       bool
	serial         bool
	extensions     bool
	arrivals       bool
	csvDir         string
	height         int
	quiet          bool
	parallel       int
	metricsOut     string
	traceOut       string
	chromeOut      string
	introspectAddr string
	// obs aggregates metrics (and optionally events) over every run of the
	// invocation; nil when no observability flag was given.
	obs *obs.Obs
	// intro is the live introspection server (nil-safe: phases and run
	// info are dropped when no debug address was given).
	intro *introspect.Server
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stagesim", flag.ContinueOnError)
	var o options
	fs.IntVar(&o.cases, "cases", 40, "number of random test cases (paper: 40)")
	fs.Int64Var(&o.seed, "seed", 1, "base seed; case i uses seed+i")
	fs.StringVar(&o.weights, "weights", "1,10,100", `priority weighting: "1,10,100", "1,5,10", or "both"`)
	fs.StringVar(&o.figures, "figures", "2,3,4,5", "comma-separated figure numbers to print")
	fs.BoolVar(&o.extras, "extras", true, "print the technical-report extras table")
	fs.BoolVar(&o.baseline, "baseline", true, "print the priority-first baseline comparison")
	fs.BoolVar(&o.congestion, "congestion", false, "run the future-work congestion sweep")
	fs.BoolVar(&o.gamma, "gamma", false, "run the garbage-collection (γ) ablation")
	fs.BoolVar(&o.failures, "failures", false, "run the link-failure resilience sweep")
	fs.BoolVar(&o.serial, "serial", false, "run the §3 parallel-vs-serial-transfer comparison")
	fs.BoolVar(&o.extensions, "extensions", false, "include the C5 extension criterion in the study")
	fs.BoolVar(&o.arrivals, "arrivals", false, "run the online-arrival (ad-hoc request) sweep")
	fs.StringVar(&o.netPath, "net", "", "base-network scenario JSON for the workload modes (items stripped; default: generate from -seed)")
	fs.StringVar(&o.emitTrace, "emit-trace", "", "compile -sat-spec against the base network into a canonical .trace.json at this path, then exit")
	fs.StringVar(&o.replay, "replay", "", "replay a .trace.json through the offline engine over the base network, print the outcome, then exit")
	fs.StringVar(&o.replayOut, "replay-out", "", "with -replay: also write the committed transfers and objective as JSON (for bit-identical cross-path comparison)")
	fs.BoolVar(&o.saturation, "saturation", false, "sweep offered load over -sat-spec, find the admission knee, and print the saturation report")
	fs.StringVar(&o.satSpec, "sat-spec", "burst", "built-in workload spec for -saturation/-emit-trace: "+strings.Join(workload.BuiltinNames(), ", "))
	fs.StringVar(&o.satLoads, "sat-loads", "0.5,1,2,4,8", "comma-separated offered-load multipliers for the saturation sweep")
	fs.IntVar(&o.satCases, "sat-cases", 0, "aggregate the saturation sweep over this many generated networks (0 = single base network)")
	fs.StringVar(&o.satOut, "sat-out", "", "write the saturation JSON artifact to this file")
	fs.BoolVar(&o.satFakeClock, "sat-fake-clock", false, "measure decision latency with a deterministic virtual clock so the report and artifact are byte-stable")
	fs.StringVar(&o.csvDir, "csv", "", "directory to write CSV files into")
	fs.IntVar(&o.height, "height", 16, "chart height in rows")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress progress output")
	fs.IntVar(&o.parallel, "parallel", 0, "concurrent scheduler runs (0 = GOMAXPROCS)")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write a JSON metrics snapshot aggregated over the whole study to this file")
	fs.StringVar(&o.traceOut, "trace-out", "", "stream scheduling events to this file as JSON lines (interleaved across concurrent runs; use -parallel 1 for a readable trace)")
	fs.StringVar(&o.chromeOut, "chrome-trace-out", "", "write one representative run (base-seed case, full_one/C4) as a Chrome trace-event JSON file (open in Perfetto)")
	fs.StringVar(&o.introspectAddr, "introspect-addr", "", "serve /metrics, /events, /runinfo, /debug/pprof on this address while the study runs")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var traceSink *obs.JSONLSink
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		traceSink = obs.NewJSONLSink(f)
		o.obs = obs.NewTraced(traceSink)
	} else if o.metricsOut != "" || o.introspectAddr != "" {
		o.obs = obs.New()
	}

	o.intro = introspect.NewServer(o.obs)
	if o.introspectAddr != "" {
		ln, err := o.intro.Start(o.introspectAddr)
		if err != nil {
			return fmt.Errorf("-introspect-addr: %w", err)
		}
		defer ln.Close()
		fmt.Fprintf(out, "introspect: http://%s/\n", ln.Addr())
	}

	schemes, err := weightSchemes(o.weights)
	if err != nil {
		return err
	}
	if o.emitTrace != "" || o.replay != "" || o.saturation {
		// The workload modes stand alone; the study does not run.
		return runWorkloadModes(out, o, schemes[0].weights)
	}
	o.intro.SetRunInfo(introspect.RunInfo{
		Scenario:  fmt.Sprintf("study: %d cases from seed %d", o.cases, o.seed),
		Scheduler: "heuristic/criterion sweep",
		Config: map[string]string{
			"weights": o.weights, "figures": o.figures,
			"cases": strconv.Itoa(o.cases),
		},
	})
	results := make(map[string]*experiment.Result, len(schemes))
	for _, ws := range schemes {
		res, err := runStudy(o, ws)
		if err != nil {
			return err
		}
		results[ws.name] = res
		if err := printStudy(out, o, ws.name, res); err != nil {
			return err
		}
	}
	if len(schemes) == 2 {
		if err := printWeightingComparison(out, o, schemes, results); err != nil {
			return err
		}
	}
	if o.congestion {
		if err := runCongestion(out, o, schemes[0].weights); err != nil {
			return err
		}
	}
	if o.gamma {
		if err := runGamma(out, o, schemes[0].weights); err != nil {
			return err
		}
	}
	if o.failures {
		if err := runFailures(out, o, schemes[0].weights); err != nil {
			return err
		}
	}
	if o.serial {
		if err := runSerial(out, o, schemes[0].weights); err != nil {
			return err
		}
	}
	if o.arrivals {
		if err := runArrivals(out, o, schemes[0].weights); err != nil {
			return err
		}
	}
	if o.chromeOut != "" {
		if err := writeChromeTrace(out, o, schemes[0].weights); err != nil {
			return err
		}
	}
	o.intro.SetPhase("done")
	if o.obs != nil {
		if o.metricsOut != "" {
			f, err := os.Create(o.metricsOut)
			if err != nil {
				return err
			}
			if err := o.obs.Snapshot().WriteJSON(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(out, "\n(metrics json: %s)\n", o.metricsOut)
		}
		if traceSink != nil {
			if err := traceSink.Close(); err != nil {
				return fmt.Errorf("-trace-out: %w", err)
			}
			fmt.Fprintf(out, "(event trace: %s, %d events)\n", o.traceOut, o.obs.Trace().Total())
		}
	}
	return nil
}

func runArrivals(out io.Writer, o options, w model.Weights) error {
	o.intro.SetPhase("online-arrival sweep")
	if !o.quiet {
		fmt.Fprintln(os.Stderr, "running online-arrival sweep...")
	}
	opts := experiment.Options{Params: gen.Default(), NumCases: o.cases, BaseSeed: o.seed, Weights: w, Obs: o.obs}
	pair := core.Pair{Heuristic: core.FullPathOneDest, Criterion: core.C4}
	points, err := experiment.ArrivalSweep(opts, []float64{0, 0.25, 0.5, 0.75, 1}, pair, core.EUFromLog10(2))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nOnline-arrival sweep (%v, %d cases per level):\n", pair, o.cases)
	h, rows := report.ArrivalRows(points)
	return report.Table(out, h, rows)
}

func runSerial(out io.Writer, o options, w model.Weights) error {
	o.intro.SetPhase("parallel-vs-serial comparison")
	if !o.quiet {
		fmt.Fprintln(os.Stderr, "running parallel-vs-serial comparison...")
	}
	opts := experiment.Options{Params: gen.Default(), NumCases: o.cases, BaseSeed: o.seed, Weights: w, Obs: o.obs}
	pair := core.Pair{Heuristic: core.FullPathOneDest, Criterion: core.C4}
	pt, err := experiment.SerialComparison(opts, pair, core.EUFromLog10(2))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nParallel vs serialized machine ports (%v, %d cases):\n", pair, o.cases)
	return report.Table(out,
		[]string{"model", "mean value", "min", "max"},
		[][]string{
			{"parallel (paper §3)", fmt.Sprintf("%.1f", pt.Parallel.Mean),
				fmt.Sprintf("%.1f", pt.Parallel.Min), fmt.Sprintf("%.1f", pt.Parallel.Max)},
			{"serialized ports", fmt.Sprintf("%.1f", pt.Serial.Mean),
				fmt.Sprintf("%.1f", pt.Serial.Min), fmt.Sprintf("%.1f", pt.Serial.Max)},
			{"retained fraction", fmt.Sprintf("%.3f", pt.RetainedFraction), "", ""},
		})
}

func runGamma(out io.Writer, o options, w model.Weights) error {
	o.intro.SetPhase("gamma ablation")
	if !o.quiet {
		fmt.Fprintln(os.Stderr, "running gamma ablation...")
	}
	opts := experiment.Options{Params: gen.Default(), NumCases: o.cases, BaseSeed: o.seed, Weights: w, Obs: o.obs}
	pair := core.Pair{Heuristic: core.FullPathOneDest, Criterion: core.C4}
	gammas := []time.Duration{0, time.Minute, 6 * time.Minute, 30 * time.Minute, 2 * time.Hour}
	points, err := experiment.GammaSweep(opts, gammas, pair, core.EUFromLog10(2))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nGarbage-collection ablation (%v, %d cases per γ):\n", pair, o.cases)
	h, rows := report.GammaRows(points)
	return report.Table(out, h, rows)
}

func runFailures(out io.Writer, o options, w model.Weights) error {
	o.intro.SetPhase("failure resilience sweep")
	if !o.quiet {
		fmt.Fprintln(os.Stderr, "running failure resilience sweep...")
	}
	opts := experiment.Options{Params: gen.Default(), NumCases: o.cases, BaseSeed: o.seed, Weights: w, Obs: o.obs}
	pair := core.Pair{Heuristic: core.FullPathOneDest, Criterion: core.C4}
	points, err := experiment.FailureSweep(opts, []int{0, 5, 15, 40, 100}, pair, core.EUFromLog10(2))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nLink-failure resilience (%v, %d cases per level):\n", pair, o.cases)
	h, rows := report.FailureRows(points)
	return report.Table(out, h, rows)
}

// writeChromeTrace renders one representative run — the base-seed case
// under full_one/C4 at log10(E-U)=2, the study's reference configuration —
// as a Chrome trace-event file. A whole study interleaves thousands of runs
// over unrelated scenarios, which makes a merged timeline unreadable; one
// deterministic run gives Perfetto something worth looking at.
func writeChromeTrace(out io.Writer, o options, w model.Weights) error {
	o.intro.SetPhase("chrome trace export")
	sc, err := gen.Generate(gen.Default(), o.seed)
	if err != nil {
		return err
	}
	mem := &obs.MemorySink{}
	res, err := core.Schedule(sc, core.Config{
		Heuristic: core.FullPathOneDest,
		Criterion: core.C4,
		EU:        core.EUFromLog10(2),
		Weights:   w,
		Obs:       obs.NewTraced(mem),
	})
	if err != nil {
		return err
	}
	f, err := os.Create(o.chromeOut)
	if err != nil {
		return err
	}
	if err := chrometrace.WriteFile(f, sc, res, mem.Events()); err != nil {
		f.Close()
		return fmt.Errorf("-chrome-trace-out: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "\n(chrome trace: %s — %s, full_one/C4 at log10(E-U)=2)\n", o.chromeOut, sc.Name)
	return nil
}

type weightScheme struct {
	name    string
	weights model.Weights
}

func weightSchemes(s string) ([]weightScheme, error) {
	switch s {
	case "1,10,100":
		return []weightScheme{{"1,10,100", model.Weights1x10x100}}, nil
	case "1,5,10":
		return []weightScheme{{"1,5,10", model.Weights1x5x10}}, nil
	case "both":
		return []weightScheme{
			{"1,10,100", model.Weights1x10x100},
			{"1,5,10", model.Weights1x5x10},
		}, nil
	default:
		// Allow arbitrary comma-separated weights for experimentation.
		parts := strings.Split(s, ",")
		w := make(model.Weights, 0, len(parts))
		for _, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, fmt.Errorf("bad -weights %q: %w", s, err)
			}
			w = append(w, v)
		}
		if len(w) == 0 {
			return nil, fmt.Errorf("empty -weights")
		}
		return []weightScheme{{s, w}}, nil
	}
}

func runStudy(o options, ws weightScheme) (*experiment.Result, error) {
	opts := experiment.Options{
		Params:      gen.Default(),
		NumCases:    o.cases,
		BaseSeed:    o.seed,
		Weights:     ws.weights,
		Parallelism: o.parallel,
		Obs:         o.obs,
	}
	if o.extensions {
		opts.Pairs = core.PairsWithExtensions()
	}
	var echo func(done, total int)
	if !o.quiet {
		fmt.Fprintf(os.Stderr, "running study (weights %s, %d cases)...\n", ws.name, o.cases)
		lastPct := -1
		echo = func(done, total int) {
			pct := done * 100 / total
			if pct/10 != lastPct/10 {
				lastPct = pct
				fmt.Fprintf(os.Stderr, "  %3d%% (%d/%d runs)\n", pct, done, total)
			}
		}
	}
	opts.Progress = func(done, total int) {
		o.intro.SetPhase(fmt.Sprintf("study weights %s: %d/%d runs", ws.name, done, total))
		if echo != nil {
			echo(done, total)
		}
	}
	return experiment.Run(opts)
}

func printStudy(out io.Writer, o options, name string, res *experiment.Result) error {
	fmt.Fprintf(out, "\n================ weighting %s (%d cases, %v) ================\n",
		name, res.Cases, res.Elapsed.Round(1e9))
	type figure struct {
		num    string
		title  string
		labels []string
		series []report.Series
	}
	var figs []figure
	for _, f := range strings.Split(o.figures, ",") {
		switch strings.TrimSpace(f) {
		case "2":
			l, s := report.Figure2(res)
			figs = append(figs, figure{"2", "Figure 2: bounds and best criterion (C4) per heuristic", l, s})
		case "3":
			l, s := report.FigureCriteria(res, core.PartialPath)
			figs = append(figs, figure{"3", "Figure 3: partial path heuristic, criteria C1-C4", l, s})
		case "4":
			l, s := report.FigureCriteria(res, core.FullPathOneDest)
			figs = append(figs, figure{"4", "Figure 4: full path/one destination, criteria C1-C4", l, s})
		case "5":
			l, s := report.FigureCriteria(res, core.FullPathAllDests)
			figs = append(figs, figure{"5", "Figure 5: full path/all destinations, criteria C2-C4", l, s})
		case "":
		default:
			return fmt.Errorf("unknown figure %q", f)
		}
	}
	for _, fig := range figs {
		fmt.Fprintln(out)
		fmt.Fprint(out, report.Chart(fig.title+" — weighted value vs log10(E-U)", fig.labels, fig.series, o.height))
		if o.csvDir != "" {
			path := filepath.Join(o.csvDir, fmt.Sprintf("figure%s-%s.csv", fig.num, sanitize(name)))
			if err := writeCSV(path, fig.labels, fig.series); err != nil {
				return err
			}
			fmt.Fprintf(out, "(csv: %s)\n", path)
		}
	}

	fmt.Fprintln(out, "\nBounds and baselines (weighted value):")
	h, rows := report.BoundsRows(res)
	if err := report.Table(out, h, rows); err != nil {
		return err
	}
	if o.baseline {
		fmt.Fprintln(out, "\nPriority-first baseline vs heuristic/criterion pairs (at each pair's best E-U):")
		h, rows = report.PriorityFirstRows(res)
		if err := report.Table(out, h, rows); err != nil {
			return err
		}
	}
	if o.extras {
		fmt.Fprintln(out, "\nTechnical-report extras (per pair at its best E-U):")
		h, rows = report.ExtrasRows(res)
		if err := report.Table(out, h, rows); err != nil {
			return err
		}
	}
	return nil
}

func printWeightingComparison(out io.Writer, o options, schemes []weightScheme, results map[string]*experiment.Result) error {
	fmt.Fprintln(out, "\nWeighting-scheme comparison (full_one/C4 at best E-U, mean satisfied per class):")
	h, rows, err := report.WeightingRows(
		schemes[0].name, results[schemes[0].name],
		schemes[1].name, results[schemes[1].name],
		core.FullPathOneDest, core.C4)
	if err != nil {
		return err
	}
	return report.Table(out, h, rows)
}

func runCongestion(out io.Writer, o options, w model.Weights) error {
	o.intro.SetPhase("congestion sweep")
	if !o.quiet {
		fmt.Fprintln(os.Stderr, "running congestion sweep...")
	}
	opts := experiment.Options{
		Params:   gen.Default(),
		NumCases: o.cases,
		BaseSeed: o.seed,
		Weights:  w,
		Obs:      o.obs,
	}
	pair := core.Pair{Heuristic: core.FullPathOneDest, Criterion: core.C4}
	cr, err := experiment.CongestionSweep(opts, []int{10, 20, 30, 40, 50, 60}, pair, core.EUFromLog10(2))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nCongestion sweep (%v at log10(E-U)=2, %d cases per load):\n", pair, cr.Cases)
	h, rows := report.CongestionRows(cr)
	return report.Table(out, h, rows)
}

func writeCSV(path string, labels []string, series []report.Series) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return report.CSV(f, labels, series)
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			return r
		case r == ',':
			return 'x'
		default:
			return '_'
		}
	}, strings.ToLower(s))
}
