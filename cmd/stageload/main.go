// Command stageload replays a canonical workload trace against a running
// stagesvc and prints an admission-rate / latency summary. The trace is the
// whole traffic model: its arrival instants, sizes, slacks and priorities
// come from a workload.Spec (stagesim -emit-trace writes one per builtin
// spec), so a run is as reproducible as the file.
//
// Usage:
//
//	stageload -url http://127.0.0.1:8080 -trace FILE
//	          [-timeout DUR] [-min-admitted N] [-class-summary]
//
// The replay follows the target's clock (GET /v1/info):
//
//   - virtual clock (stagesvc -virtual-clock): the driver advances the clock
//     to each arrival instant, so the service decides exactly the offline
//     engine's admission epochs, and a submission's latency is the wall time
//     of the advance that decided it — the per-epoch cost;
//   - wall clock: the trace is shifted once so its first arrival lands on the
//     service's now, and each arrival is sent open-loop when the service
//     clock (advancing at its -time-scale) reaches it. Latency runs from the
//     arrival's due instant, so a slow service is charged for the sends it
//     delayed, and a 429 is counted as overloaded, never retried.
//
// -min-admitted makes the run a check: the exit status is non-zero unless
// at least that many submissions were admitted — the smoke test's
// assertion.
//
// -class-summary appends a per-priority-class table (requests, verdict
// mix, admission rate, p50/p99 decision latency) derived from the
// service's audit stream; the target must run with auditing enabled
// (stagesvc -audit).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"datastaging/internal/obs/lifecycle"
	"datastaging/internal/report"
	"datastaging/internal/serve"
	"datastaging/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "stageload:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stageload", flag.ContinueOnError)
	url := fs.String("url", "", "stagesvc base URL (required), e.g. http://127.0.0.1:8080")
	tracePath := fs.String("trace", "", "canonical .trace.json to replay (required)")
	timeout := fs.Duration("timeout", 2*time.Minute, "overall run budget")
	minAdmitted := fs.Int("min-admitted", 0, "fail unless at least this many submissions were admitted")
	classSummary := fs.Bool("class-summary", false,
		"print a per-priority-class verdict/latency table from the service's audit stream (target needs -audit)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *url == "" {
		return fmt.Errorf("-url is required")
	}
	if *tracePath == "" {
		return fmt.Errorf("-trace is required (stagesim -emit-trace writes one)")
	}
	tr, err := workload.ReadTraceFile(*tracePath)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()
	c := &serve.Client{BaseURL: *url}
	rep, err := serve.ReplayTrace(ctx, c, tr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "trace      %s (%d arrivals, %d requests)\n",
		tr.Name, len(tr.Arrivals), workload.NumRequests(tr.Arrivals))
	rep.Write(out)
	if *classSummary {
		if err := printClassSummary(ctx, c, out); err != nil {
			return err
		}
	}
	if rep.Admitted < *minAdmitted {
		return fmt.Errorf("admitted %d submissions, need at least %d", rep.Admitted, *minAdmitted)
	}
	return nil
}

// printClassSummary pulls the service's audit stream and prints the
// per-priority-class verdict mix and decision-latency quantiles.
func printClassSummary(ctx context.Context, c *serve.Client, out io.Writer) error {
	recs, err := c.Audit(ctx)
	if err != nil {
		var st *serve.ErrStatus
		if errors.As(err, &st) && st.Code == http.StatusNotFound {
			return fmt.Errorf("-class-summary: the target exposes no audit stream; run stagesvc with -audit")
		}
		return fmt.Errorf("-class-summary: %w", err)
	}
	headers, rows := report.AuditClassRows(lifecycle.Summarize(recs))
	fmt.Fprintln(out)
	return report.Table(out, headers, rows)
}
