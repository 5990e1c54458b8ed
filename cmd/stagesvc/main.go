// Command stagesvc runs the online admission service: an HTTP/JSON daemon
// that accepts streaming data-staging requests, group-commits them into
// admission epochs, and answers each with an admit/reject verdict backed by
// the paper's scheduling heuristics against a live committed schedule.
//
// The scenario file (or generator seed) contributes the network topology,
// horizon, and garbage-collection policy; by default its item load is
// dropped so the service starts with an empty request book and all load
// arrives through the API (keep it with -with-items).
//
// Usage:
//
//	stagesvc [-addr :8080] [-in FILE | -seed N] [-with-items]
//	         [-heuristic partial|full_one|full_all] [-criterion C1..C5]
//	         [-eu LOG10|inf|-inf] [-weights 1,10,100]
//	         [-queue-cap N]
//	         [-virtual-clock] [-time-scale X]
//	         [-drain-timeout DUR]
//	         [-replay-trace FILE] [-audit] [-audit-out FILE]
//	         [-chrome-trace-out FILE]
//	         [-shards N] [-shard-map FILE] [-schedule-out FILE]
//
// Sharded mode: -shards N partitions the network into N regions (greedy
// balanced min-cut; -shard-map FILE supplies an explicit
// {"shards": [[0,1],[2,3]]} document instead), runs one admission engine
// per region, admits in-shard submissions with zero coordination, and
// settles cross-shard submissions through a two-level offer/commit round.
// The HTTP surface is the same code in both modes (serve.NewHandler over
// the engine or over the sharded service); GET /v1/schedule merges all
// shards, GET /v1/info reports the partition, and the one extra route
// GET /v1/shards/{k}/info describes one region. Requires starting empty
// (no -with-items); -chrome-trace-out is single-engine only. In either
// mode the independent validator re-checks the final schedule on exit and
// -schedule-out FILE writes its (merged) view as JSON.
//
// Replay mode: -replay-trace FILE (requires -virtual-clock) starts the
// service, replays the canonical trace against its own HTTP endpoint —
// -queue-cap is auto-raised so no arrival of one instant is shed —
// prints the load report and final schedule, and exits.
//
// API (all JSON):
//
//	POST /v1/requests       submit a staging request (?wait=1 blocks for
//	                        the verdict); 429 + Retry-After when the
//	                        intake queue is full, 503 while draining
//	GET  /v1/requests/{id}  current verdict for one submission
//	GET  /v1/schedule       committed schedule and weighted objective
//	POST /v1/advance        move the virtual clock ({"to": "90m"})
//	GET  /v1/info           service description
//	GET  /metrics           Prometheus text exposition (serve.* and core
//	                        scheduler metrics)
//	GET  /runinfo           live epoch phase; /events, /debug/pprof/ too
//
// Auditing: -audit (implied by -audit-out or -chrome-trace-out) records
// one schema-versioned lifecycle event per admission decision. Records
// stream to -audit-out as JSONL, are served live via GET /v1/audit and
// GET /v1/requests/{id}/trace, feed the per-priority-class
// decision-latency histograms on /metrics, and — with -chrome-trace-out —
// render as per-request tracks in a Perfetto trace written on exit.
//
// SIGTERM or SIGINT drains gracefully: intake closes (503), the in-flight
// epoch completes, the final schedule is reported, and the process exits 0.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"datastaging/internal/cliconf"
	"datastaging/internal/obs"
	"datastaging/internal/obs/chrometrace"
	"datastaging/internal/obs/introspect"
	"datastaging/internal/obs/lifecycle"
	"datastaging/internal/scenario"
	"datastaging/internal/serve"
	"datastaging/internal/shard"
	"datastaging/internal/validator"
	"datastaging/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "stagesvc:", err)
		os.Exit(1)
	}
}

// service is what the daemon needs from its admission service: a
// *serve.Engine, or a *shard.Service with -shards / -shard-map.
type service interface {
	Handler() http.Handler
	Schedule() serve.ScheduleView
	Drain(context.Context) error
	Scenario() *scenario.Scenario
}

// testHookReady, when set by tests, receives the bound listen address once
// the service accepts connections.
var testHookReady func(addr string)

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stagesvc", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "HTTP listen address")
	inPath := fs.String("in", "", "scenario JSON file (default: generate from -seed)")
	seed := fs.Int64("seed", 1, "generator seed when -in is not given")
	withItems := fs.Bool("with-items", false,
		"keep the scenario's items (planned in the first epoch) instead of starting empty")
	heuristicName := fs.String("heuristic", "full_one", "partial, full_one, or full_all")
	criterionName := fs.String("criterion", "C4", "C1..C4, or the C5 extension")
	euName := fs.String("eu", "2", "log10(W_E/W_U), or inf / -inf")
	weightsName := fs.String("weights", "1,10,100", `"1,10,100" or "1,5,10"`)
	queueCap := fs.Int("queue-cap", 256, "intake queue bound; beyond it submissions get 429")
	virtual := fs.Bool("virtual-clock", false,
		"freeze time; it only moves via POST /v1/advance (deterministic replay mode)")
	timeScale := fs.Float64("time-scale", 1, "simulated seconds per wall second (wall clock)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget")
	replayTrace := fs.String("replay-trace", "",
		"replay this canonical .trace.json against the service's own endpoint, print the outcome, and exit (requires -virtual-clock)")
	audit := fs.Bool("audit", false,
		"record one lifecycle audit event per admission decision (enables GET /v1/audit and /v1/requests/{id}/trace)")
	auditOut := fs.String("audit-out", "",
		"stream audit records to this JSONL file (implies -audit)")
	chromeOut := fs.String("chrome-trace-out", "",
		"write a Perfetto trace of the final schedule and per-request lifecycles on exit (implies -audit)")
	shards := fs.Int("shards", 1,
		"partition the network into this many admission regions with a two-level cross-shard protocol")
	shardMap := fs.String("shard-map", "",
		`explicit partition file ({"shards": [[0,1],[2,3]]}) instead of the greedy planner (implies sharded mode)`)
	scheduleOut := fs.String("schedule-out", "",
		"write the final (merged) schedule view as JSON to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *auditOut != "" || *chromeOut != "" {
		*audit = true
	}
	sharded := *shards > 1 || *shardMap != ""
	if sharded {
		if *withItems {
			return fmt.Errorf("-shards needs an empty starting scenario; drop -with-items")
		}
		if *chromeOut != "" {
			return fmt.Errorf("-chrome-trace-out is single-engine only; drop -shards")
		}
	}

	var tr *workload.Trace
	if *replayTrace != "" {
		if !*virtual {
			return fmt.Errorf("-replay-trace needs -virtual-clock: trace replay is defined over the virtual timeline")
		}
		var err error
		if tr, err = workload.ReadTraceFile(*replayTrace); err != nil {
			return err
		}
		// The queue must hold every arrival of one instant, or some would
		// be shed instead of planned.
		if *queueCap < len(tr.Arrivals) {
			*queueCap = len(tr.Arrivals)
		}
	}

	sc, err := cliconf.LoadScenario(*inPath, *seed)
	if err != nil {
		return err
	}
	if !*withItems {
		sc.Items = nil
	}
	w, err := cliconf.ParseWeights(*weightsName)
	if err != nil {
		return err
	}
	cfg, err := cliconf.BuildConfig(*heuristicName, *criterionName, *euName, w)
	if err != nil {
		return err
	}
	o := obs.New()
	cfg.Obs = o

	intro := introspect.NewServer(o)
	intro.SetRunInfo(introspect.RunInfo{
		Scenario:  sc.Name,
		Machines:  sc.Network.NumMachines(),
		Links:     len(sc.Network.Links),
		Items:     len(sc.Items),
		Scheduler: fmt.Sprintf("%v/%v at E-U %s", cfg.Heuristic, cfg.Criterion, cfg.EU.Label()),
		Config: map[string]string{
			"queue-cap": fmt.Sprint(*queueCap), "virtual-clock": fmt.Sprint(*virtual),
			"weights": *weightsName,
		},
	})

	var recorder *lifecycle.Recorder
	if *audit {
		var sink io.Writer
		if *auditOut != "" {
			f, err := os.Create(*auditOut)
			if err != nil {
				return err
			}
			defer f.Close()
			sink = f
		}
		recorder = lifecycle.New(lifecycle.Options{Obs: o, Sink: sink})
	}

	opts := serve.Options{
		Config:       cfg,
		QueueCap:     *queueCap,
		VirtualClock: *virtual,
		TimeScale:    *timeScale,
		Intro:        intro,
		Audit:        recorder,
	}
	var svc service
	if sharded {
		var plan *shard.Plan
		if *shardMap != "" {
			plan, err = shard.ReadPlanFile(*shardMap, sc.Network)
		} else {
			plan, err = shard.Greedy(sc.Network, *shards)
		}
		if err != nil {
			return err
		}
		if svc, err = shard.New(sc, plan, opts); err != nil {
			return err
		}
		prep := plan.Report(sc.Network)
		fmt.Fprintf(out, "stagesvc: partitioned into %d shards (%d cut links, %d bps cut bandwidth)\n",
			prep.Shards, prep.CutLinks, prep.CutBandwidthBPS)
		if len(prep.Disconnected) > 0 {
			fmt.Fprintf(out, "stagesvc: warning: shards %v are internally disconnected; "+
				"requests needing a cross-region route there will be rejected\n", prep.Disconnected)
		}
	} else if svc, err = serve.New(sc, opts); err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "stagesvc: listening on http://%s/ (%s: %d machines, %d links, %d items)\n",
		ln.Addr(), sc.Name, sc.Network.NumMachines(), len(sc.Network.Links), len(sc.Items))
	if testHookReady != nil {
		testHookReady(ln.Addr().String())
	}

	srv := &http.Server{Handler: svc.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	if tr != nil {
		rep, err := serve.ReplayTrace(ctx, &serve.Client{BaseURL: "http://" + ln.Addr().String()}, tr)
		if err != nil {
			return fmt.Errorf("-replay-trace: %w", err)
		}
		fmt.Fprintf(out, "stagesvc: replayed trace %s: %d arrivals, %d admitted, %d rejected\n",
			tr.Name, rep.Requests, rep.Admitted, rep.Rejected)
	} else {
		select {
		case err := <-errCh:
			return err
		case <-ctx.Done():
		}
		fmt.Fprintln(out, "stagesvc: draining")
	}

	// Graceful drain: close intake and finish the in-flight epoch first, so
	// blocked ?wait=1 requests resolve; then shut the HTTP server down.
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := svc.Drain(dctx)
	if err := srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}

	// Both exit paths (replay mode and a signal) report the drained
	// service's final schedule and the audit artifacts.
	sv := svc.Schedule()
	fmt.Fprintf(out, "stagesvc: final schedule: %d epochs, %d/%d requests satisfied, "+
		"%d transfers, weighted value %.1f\n",
		sv.Epochs, sv.Satisfied, sv.TotalRequests, len(sv.Transfers), sv.WeightedValue)
	// The independent validator re-checks whatever is reported: a sharded
	// merge plus cut transfers has nothing else to vouch for it.
	if err := validator.Validate(svc.Scenario(), sv.Transfers); err != nil {
		return fmt.Errorf("final schedule failed validation: %w", err)
	}
	fmt.Fprintln(out, "stagesvc: validator: final schedule clean")
	if *scheduleOut != "" {
		b, err := json.MarshalIndent(sv, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*scheduleOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "stagesvc: wrote final schedule to %s\n", *scheduleOut)
	}
	if recorder != nil {
		if err := recorder.SinkErr(); err != nil {
			return fmt.Errorf("audit sink: %w", err)
		}
		if *auditOut != "" {
			fmt.Fprintf(out, "stagesvc: wrote %d audit records to %s\n",
				recorder.Len(), *auditOut)
		}
	}
	if *chromeOut != "" {
		f, err := os.Create(*chromeOut)
		if err != nil {
			return err
		}
		ct := chrometrace.New()
		// -chrome-trace-out was refused with -shards: svc is the engine.
		ct.AddResult(svc.Scenario(), svc.(*serve.Engine).Result())
		ct.AddLifecycle(recorder.Records())
		if err := ct.Encode(f); err != nil {
			f.Close()
			return fmt.Errorf("chrome trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "stagesvc: wrote chrome trace to %s\n", *chromeOut)
	}
	return nil
}
