// Command stagerun executes one scheduler on one scenario and reports the
// outcome: weighted value, per-priority satisfaction, bounds, and
// optionally the full transfer schedule. The scenario comes from a JSON
// file (stagegen output) or is generated on the fly from a seed.
//
// Usage:
//
//	stagerun [-in FILE | -seed N] [-heuristic partial|full_one|full_all]
//	         [-criterion C1..C5] [-eu LOG10|inf|-inf]
//	         [-weights 1,10,100|1,5,10] [-scheduler heuristic|priority_first|
//	          random_dijkstra|single_dij_random]
//	         [-transfers] [-timeline] [-utilization] [-explain N]
//	         [-metrics-out FILE] [-trace-out FILE]
//	         [-chrome-trace-out FILE] [-introspect-addr ADDR]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"datastaging/internal/bounds"
	"datastaging/internal/cliconf"
	"datastaging/internal/core"
	"datastaging/internal/eval"
	"datastaging/internal/explain"
	"datastaging/internal/model"
	"datastaging/internal/obs"
	"datastaging/internal/obs/chrometrace"
	"datastaging/internal/obs/introspect"
	"datastaging/internal/report"
	"datastaging/internal/report/utilization"
	"datastaging/internal/scenario"
	"datastaging/internal/validator"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "stagerun:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stagerun", flag.ContinueOnError)
	inPath := fs.String("in", "", "scenario JSON file (default: generate from -seed)")
	seed := fs.Int64("seed", 1, "generator seed when -in is not given")
	heuristicName := fs.String("heuristic", "full_one", "partial, full_one, or full_all")
	criterionName := fs.String("criterion", "C4", "C1..C4, or the C5 extension")
	euName := fs.String("eu", "2", "log10(W_E/W_U), or inf / -inf")
	weightsName := fs.String("weights", "1,10,100", `"1,10,100" or "1,5,10"`)
	schedName := fs.String("scheduler", "heuristic",
		"heuristic, priority_first, random_dijkstra, or single_dij_random")
	showTransfers := fs.Bool("transfers", false, "print the transfer schedule")
	showTimeline := fs.Bool("timeline", false, "print the per-machine activity timeline and link utilization")
	showUtil := fs.Bool("utilization", false, "print exact per-link/port/storage utilization and bottleneck attribution")
	explainN := fs.Int("explain", 0, "diagnose up to N unsatisfied requests (why each went unserved)")
	csvOut := fs.String("csvout", "", "write the transfer schedule as CSV to this file")
	metricsOut := fs.String("metrics-out", "", "write a JSON metrics snapshot to this file after the run")
	traceOut := fs.String("trace-out", "", "stream scheduling events to this file as JSON lines")
	chromeOut := fs.String("chrome-trace-out", "", "write the run as a Chrome trace-event JSON file (open in Perfetto)")
	introspectAddr := fs.String("introspect-addr", "", "serve /metrics, /events, /runinfo, /debug/pprof on this address")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// One sink per consumer: the JSONL stream sees events as they happen,
	// the memory sink captures the full run for the Chrome trace.
	var o *obs.Obs
	var traceSink *obs.JSONLSink
	var chromeSink *obs.MemorySink
	if *traceOut != "" || *chromeOut != "" {
		var sinks []obs.Sink
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				return err
			}
			defer f.Close()
			traceSink = obs.NewJSONLSink(f)
			sinks = append(sinks, traceSink)
		}
		if *chromeOut != "" {
			chromeSink = &obs.MemorySink{}
			sinks = append(sinks, chromeSink)
		}
		o = obs.NewTraced(obs.Tee(sinks...))
	} else if *metricsOut != "" || *introspectAddr != "" {
		o = obs.New()
	}

	intro := introspect.NewServer(o)
	if *introspectAddr != "" {
		ln, err := intro.Start(*introspectAddr)
		if err != nil {
			return fmt.Errorf("-introspect-addr: %w", err)
		}
		defer ln.Close()
		fmt.Fprintf(out, "introspect: http://%s/\n", ln.Addr())
	}

	sc, err := loadScenario(*inPath, *seed)
	if err != nil {
		return err
	}
	w, err := parseWeights(*weightsName)
	if err != nil {
		return err
	}
	intro.SetRunInfo(introspect.RunInfo{
		Scenario:  sc.Name,
		Machines:  sc.Network.NumMachines(),
		Links:     len(sc.Network.Links),
		Items:     len(sc.Items),
		Requests:  sc.NumRequests(),
		Scheduler: *schedName,
		Config: map[string]string{
			"heuristic": *heuristicName, "criterion": *criterionName,
			"eu": *euName, "weights": *weightsName,
		},
	})
	intro.SetPhase("planning")

	var res *core.Result
	switch *schedName {
	case "heuristic":
		cfg, err := buildConfig(*heuristicName, *criterionName, *euName, w)
		if err != nil {
			return err
		}
		cfg.Obs = o
		if err := cfg.Validate(); err != nil {
			return err
		}
		res, err = core.Schedule(sc, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "scheduler: %v/%v at E-U %s\n", cfg.Heuristic, cfg.Criterion, cfg.EU.Label())
	case "priority_first":
		if res, err = core.PriorityFirst(sc, w); err != nil {
			return err
		}
		fmt.Fprintln(out, "scheduler: priority_first")
	case "random_dijkstra":
		if res, err = core.RandomDijkstra(sc, w, *seed); err != nil {
			return err
		}
		fmt.Fprintln(out, "scheduler: random_Dijkstra")
	case "single_dij_random":
		if res, err = core.SingleDijkstraRandom(sc, w, *seed); err != nil {
			return err
		}
		fmt.Fprintln(out, "scheduler: single_Dij_random")
	default:
		return fmt.Errorf("unknown -scheduler %q", *schedName)
	}

	if err := validator.Validate(sc, res.Transfers); err != nil {
		return fmt.Errorf("schedule failed independent validation: %w", err)
	}
	intro.SetPhase("reporting")

	m := eval.Measure(sc, res, w)
	upper := bounds.Upper(sc, w)
	possible, _ := bounds.PossibleSatisfy(sc, w)
	var util *utilization.Profile
	if o != nil || *showUtil || *showTimeline {
		util = utilization.Compute(sc, res.Transfers)
		util.Export(o)
	}
	if o != nil {
		// Exact values, not rounded: the snapshot is the machine-readable
		// record of the run, and run.weighted_value must equal the measured
		// objective bit for bit.
		o.Gauge("run.weighted_value").Set(m.WeightedValue)
		o.Gauge("run.satisfied_requests").Set(float64(m.SatisfiedCount))
		o.Gauge("run.total_requests").Set(float64(m.TotalRequests))
		o.Gauge("run.transfers").Set(float64(m.Transfers))
		o.Gauge("run.upper_bound").Set(upper)
		o.Gauge("run.possible_satisfy").Set(possible)
	}
	fmt.Fprintf(out, "scenario:  %s (%d machines, %d links, %d items, %d requests)\n",
		sc.Name, sc.Network.NumMachines(), len(sc.Network.Links), len(sc.Items), sc.NumRequests())
	fmt.Fprintf(out, "value:     %.1f  (possible_satisfy %.1f, upper_bound %.1f)\n",
		m.WeightedValue, possible, upper)
	fmt.Fprintf(out, "satisfied: %d/%d requests, %d transfers, mean hops %.2f\n",
		m.SatisfiedCount, m.TotalRequests, m.Transfers, m.MeanHops)
	fmt.Fprintf(out, "work:      %d Dijkstra runs, %v elapsed\n", m.DijkstraRuns, m.Elapsed)

	rows := make([][]string, 0, len(m.ByPriority))
	for p := len(m.ByPriority) - 1; p >= 0; p-- {
		rows = append(rows, []string{
			model.Priority(p).String(),
			strconv.Itoa(m.ByPriority[p].Satisfied),
			strconv.Itoa(m.ByPriority[p].Total),
		})
	}
	fmt.Fprintln(out)
	if err := report.Table(out, []string{"priority", "satisfied", "total"}, rows); err != nil {
		return err
	}

	if *showTransfers {
		fmt.Fprintln(out, "\ntransfers:")
		trows := make([][]string, 0, len(res.Transfers))
		for _, tr := range res.Transfers {
			trows = append(trows, []string{
				sc.Item(tr.Item).Name,
				fmt.Sprintf("m%d→m%d", tr.From, tr.To),
				fmt.Sprintf("link %d", tr.Link),
				tr.Start.String(),
				tr.Arrival.String(),
			})
		}
		if err := report.Table(out, []string{"item", "hop", "via", "start", "arrival"}, trows); err != nil {
			return err
		}
	}
	if *showTimeline {
		fmt.Fprintln(out)
		fmt.Fprint(out, timeline(sc, res.Transfers, 72))
		fmt.Fprintln(out, "\nbusiest links:")
		var lrows [][]string
		for _, l := range busiestLinks(util.Links, 10) {
			lrows = append(lrows, []string{
				fmt.Sprintf("%d", l.Link),
				fmt.Sprintf("m%d→m%d", l.From, l.To),
				fmt.Sprintf("%d", l.Transfers),
				l.Busy.Round(time.Second).String(),
				fmt.Sprintf("%.1f%%", 100*l.BusyFraction),
			})
		}
		if err := report.Table(out, []string{"link", "hop", "transfers", "busy", "utilization"}, lrows); err != nil {
			return err
		}
	}
	if *showUtil {
		fmt.Fprintln(out, "\nlink utilization (exact):")
		lh, lrows := util.LinkRows()
		if err := report.Table(out, lh, lrows); err != nil {
			return err
		}
		if len(util.Ports) > 0 {
			fmt.Fprintln(out, "\nport utilization:")
			ph, prows := util.PortRows()
			if err := report.Table(out, ph, prows); err != nil {
				return err
			}
		}
		if len(util.Storage) > 0 {
			fmt.Fprintln(out, "\nstaging peaks:")
			sh, srows := util.StorageRows()
			if err := report.Table(out, sh, srows); err != nil {
				return err
			}
		}
		attr, err := utilization.Attribute(sc, res.Transfers, res.Satisfied)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nbottlenecks: %s\n", attr.Summary())
		if len(attr.Bottlenecks) > 0 {
			ah, arows := attr.Rows()
			if err := report.Table(out, ah, arows); err != nil {
				return err
			}
		}
	}
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			return err
		}
		if err := report.TransfersCSV(f, sc, res.Transfers); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "\n(transfer csv: %s)\n", *csvOut)
	}
	if *explainN > 0 {
		fmt.Fprintln(out, "\nunsatisfied request diagnoses:")
		var open []model.RequestID
		for _, id := range sc.Requests() {
			if _, ok := res.Satisfied[id]; !ok {
				open = append(open, id)
			}
		}
		if len(open) == 0 {
			fmt.Fprintln(out, "  every request was satisfied")
		}
		var diag explain.Diagnoser
		for i, id := range open {
			if i >= *explainN {
				fmt.Fprintf(out, "  ... %d more unsatisfied requests (raise -explain)\n", len(open)-i)
				break
			}
			rep, err := diag.Diagnose(sc, res.Transfers, id)
			if err != nil {
				return err
			}
			fmt.Fprint(out, rep.Format(sc))
		}
	}

	if o != nil {
		fmt.Fprintln(out, "\nmetrics:")
		snap := o.Snapshot()
		mh, mrows := report.MetricsRows(snap)
		if err := report.Table(out, mh, mrows); err != nil {
			return err
		}
		if *metricsOut != "" {
			f, err := os.Create(*metricsOut)
			if err != nil {
				return err
			}
			if err := snap.WriteJSON(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(out, "\n(metrics json: %s)\n", *metricsOut)
		}
		if traceSink != nil {
			if err := traceSink.Close(); err != nil {
				return fmt.Errorf("-trace-out: %w", err)
			}
			fmt.Fprintf(out, "(event trace: %s, %d events)\n", *traceOut, o.Trace().Total())
		}
		if chromeSink != nil {
			f, err := os.Create(*chromeOut)
			if err != nil {
				return err
			}
			if err := chrometrace.WriteFile(f, sc, res, chromeSink.Events()); err != nil {
				f.Close()
				return fmt.Errorf("-chrome-trace-out: %w", err)
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(out, "(chrome trace: %s)\n", *chromeOut)
		}
	}
	intro.SetPhase("done")
	if testHookBeforeExit != nil {
		testHookBeforeExit()
	}
	return nil
}

// testHookBeforeExit, when set by tests, runs after the report is written
// but before run returns — while the introspection listeners are still
// open.
var testHookBeforeExit func()

func loadScenario(path string, seed int64) (*scenario.Scenario, error) {
	return cliconf.LoadScenario(path, seed)
}

func buildConfig(h, c, eu string, w model.Weights) (core.Config, error) {
	return cliconf.BuildConfig(h, c, eu, w)
}

func parseWeights(s string) (model.Weights, error) {
	return cliconf.ParseWeights(s)
}
