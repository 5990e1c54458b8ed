// Command benchmark is the repository's end-to-end yardstick: it times the
// paper's offline scheduling through the datastaging façade and open-loop
// HTTP admission through a real stagesvc child process, checks every output
// from the outside, and — in a separate traced run — splits a submission's
// latency into a per-layer budget. See README.md beside this file.
//
// It is a module of its own; run.sh builds it into the checkout's
// .bench_build directory and runs it. One workload, the form the benchmark
// driver uses (the last line of standard output is one JSON result object):
//
//	bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// The whole suite — every workload end to end, then every workload traced,
// with the workload invariants asserted — and the repeatability check:
//
//	bash benchmark/run.sh -seed N [-seconds S] [-out DIR]
//	bash benchmark/run.sh -check-repeat [-seed N] [-seconds S]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func run(args []string, stdout, stderr io.Writer) int {
	// The open-loop generator is one process on one P, and offline_paper is
	// the paper's serial use of the library: with two Ps the planner's worker
	// pool made every Schedule call 1.7x slower on the 2-vCPU reference box
	// and the process's peak RSS unrepeatable.
	runtime.GOMAXPROCS(1)
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload and print the result line (default: the whole suite)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "how long one run measures")
	trace := fs.Int("trace", 0, "with -workload: 1 runs audited and reports the per-layer metrics")
	checkRepeat := fs.Bool("check-repeat", false, "run the end-to-end set twice and compare against the bounds")
	outDir := fs.String("out", "", "where the traced runs write spans and budget tables (default "+buildDir+"/out)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive, -trace 0 or 1, and no positional arguments")
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *outDir == "" {
		*outDir = filepath.Join(root, buildDir, "out")
	}
	b := &bench{root: root, seed: *seed, seconds: *seconds, outDir: *outDir, out: stdout, begin: time.Now()}
	switch {
	case *checkRepeat:
		err = b.checkRepeat()
	case *workload == "":
		err = b.suite()
	default:
		b.budget = invocationBudget
		err = b.single(*workload, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// bench is one invocation's fixed context.
type bench struct {
	root    string
	bin     string // stagesvc, built on first use
	seed    int64
	seconds float64
	outDir  string
	out     io.Writer
	begin   time.Time
	budget  time.Duration // past begin+budget no measurement is made again; 0: no limit
}

// maxAttempts is how often one measurement is made before a disturbed one is
// kept: the reference VM is stalled for 0.2-2 s at a time a few times an
// hour, and one stall puts a run's tail, its within_slo_share and (the guest
// books the stall as CPU time) its cpu_ms_per_req far outside every bound.
const maxAttempts = 3

// invocationBudget is how long a single-workload invocation may go on
// starting measurements: the driver allows an invocation 180 s.
const invocationBudget = 150 * time.Second

// undisturbed measures until the measuring side of a run was clean — a
// generator on schedule, no backlog, no stolen CPU (measure returns what was
// wrong) — at most maxAttempts times and never past the invocation's budget.
// The criterion is the harness's health, never the service's result, and
// measure reports a run with output violations as clean so that it is kept.
// Every discarded measurement is printed; the last one made is the caller's.
func (b *bench) undisturbed(workload string, measure func() (disturbed []string, err error)) error {
	for attempt := 1; ; attempt++ {
		t0 := time.Now()
		disturbed, err := measure()
		if err != nil || len(disturbed) == 0 || attempt == maxAttempts {
			return err
		}
		if b.budget > 0 && time.Since(b.begin)+time.Since(t0) > b.budget {
			return nil
		}
		fmt.Fprintf(b.out, "%s: measurement %d discarded, measuring again: %s\n", workload, attempt, strings.Join(disturbed, "; "))
	}
}

func (b *bench) offline(trace bool) (*offlineRun, error) {
	var r *offlineRun
	err := b.undisturbed(wlOffline, func() ([]string, error) {
		var err error
		if r, err = runOffline(b.seed, b.seconds, trace); err != nil || len(r.violations) > 0 {
			return nil, err
		}
		return r.harness(), nil
	})
	return r, err
}

func (b *bench) online(workload string, audit bool) (*onlineRun, error) {
	if b.bin == "" {
		bin, err := buildServer(b.root)
		if err != nil {
			return nil, err
		}
		b.bin = bin
	}
	var r *onlineRun
	err := b.undisturbed(workload, func() ([]string, error) {
		var err error
		if r, err = runOnline(b.root, b.bin, workload, b.seed, b.seconds, audit); err != nil || len(r.violations) > 0 {
			return nil, err
		}
		return r.harness(), nil
	})
	return r, err
}

// result is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is one workload run reduced to what every mode prints.
type outcome struct {
	workload   string
	values     map[string]float64
	attempted  int
	failed     int
	violations []string
	warnings   []string // harness health: the run's timings are suspect
	broken     []string // workload invariants the run did not keep
	samples    string   // sample counts behind the timings
}

// correct: failed already counts the output-check violations.
func (o *outcome) correct() bool { return o.failed == 0 }

func isOnline(workload string) bool { return workload != wlOffline }

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// endToEnd runs one workload un-traced. The onlineRun is returned for the
// traced pass to reuse as its baseline (nil for offline_paper).
func (b *bench) endToEnd(workload string) (*outcome, *onlineRun, error) {
	o := &outcome{workload: workload}
	if !isOnline(workload) {
		r, err := b.offline(false)
		if err != nil {
			return nil, nil, err
		}
		o.values, o.attempted, o.failed = r.endToEnd()
		o.violations, o.warnings = r.violations, r.harness()
		o.samples = fmt.Sprintf("%d Schedule calls over %d requests, %d setup rounds, host steal %.1f%%",
			len(r.callMS), r.requests, len(r.setupS), 100*r.stealShr)
		return o, nil, nil
	}
	r, err := b.online(workload, false)
	if err != nil {
		return nil, nil, err
	}
	o.values, o.attempted, o.failed = r.endToEnd()
	o.violations = r.violations
	o.warnings, o.broken = r.harness(), r.invariants()
	lat, _ := r.latencies()
	o.samples = fmt.Sprintf("%d submissions in %.2f s, %d verdicts (tail supported to p%g, p99 %.1f ms), %d setup samples, host steal %.1f%%; %s",
		len(r.spans), r.elapsedS, len(lat), highestSupportedPercentile(len(lat)), percentile(lat, 99), len(r.setupS), 100*r.stealShr, r.shape())
	return o, r, nil
}

// traced runs one workload's per-layer pass. base and single are earlier
// un-audited runs to compare against; missing ones are run here.
func (b *bench) traced(workload string, base, single *onlineRun) (*outcome, error) {
	o := &outcome{workload: workload}
	if !isOnline(workload) {
		r, err := b.offline(true)
		if err != nil {
			return nil, err
		}
		_, o.attempted, o.failed = r.endToEnd()
		o.values, o.violations, o.warnings = r.perLayer(), r.violations, r.harness()
		o.samples = fmt.Sprintf("%d Schedule calls", len(r.callMS))
		return o, nil
	}
	var err error
	if base == nil {
		if base, err = b.online(workload, false); err != nil {
			return nil, err
		}
	}
	if workload == wlFedShrd && single == nil {
		if single, err = b.online(wlFedOne, false); err != nil {
			return nil, err
		}
	}
	r, err := b.online(workload, true)
	if err != nil {
		return nil, err
	}
	_, o.attempted, o.failed = r.endToEnd()
	o.violations = r.violations
	var bud budget
	if o.values, bud, err = r.perLayer(base, single); err != nil {
		return nil, err
	}
	o.warnings, o.broken = r.harness(), r.invariants()
	if bud.residualShare > maxResidualShare {
		o.broken = append(o.broken, fmt.Sprintf("serve.budget_residual_share %.3f above %.2f", bud.residualShare, maxResidualShare))
	}
	o.samples = fmt.Sprintf("%d submissions, %d audit decision records", len(r.spans), bud.records)
	fmt.Fprint(b.out, bud.table(workload))
	return o, b.writeTrace(workload, r.spans, bud)
}

// writeTrace writes the traced run's client spans and budget table.
func (b *bench) writeTrace(workload string, spans []span, bud budget) error {
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(b.outDir, fmt.Sprintf("%s-seed%d", workload, b.seed))
	doc, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".spans.json", doc, 0o644); err != nil {
		return err
	}
	return os.WriteFile(stem+".budget.txt", []byte(bud.table(workload)), 0o644)
}

// print lists every metric by name with its unit and, for end-to-end
// metrics, its regression bound.
func (b *bench) print(o *outcome, specs []metricSpec) {
	fmt.Fprintf(b.out, "%s: %s; attempted %d, failed %d\n", o.workload, o.samples, o.attempted, o.failed)
	for _, s := range specs {
		bound := ""
		if s.Bound > 0 {
			bound = fmt.Sprintf("  (%s is better, may worsen %g%%)", s.Better, 100*s.Bound)
		}
		fmt.Fprintf(b.out, "  %-32s %14.6g %s%s\n", s.Name, o.values[s.Name], s.Unit, bound)
	}
	for _, v := range o.violations {
		fmt.Fprintf(b.out, "  VIOLATION: %s\n", v)
	}
	for _, w := range o.warnings {
		fmt.Fprintf(b.out, "  WARNING: %s\n", w)
	}
	for _, w := range o.broken {
		fmt.Fprintf(b.out, "  INVARIANT: %s\n", w)
	}
}

// single is the driver's form: one workload, one result line.
func (b *bench) single(workload string, trace bool) error {
	if !knownWorkload(workload) {
		return fmt.Errorf("unknown workload %q", workload)
	}
	b.printEnv()
	var (
		o     *outcome
		specs = endToEnd
		err   error
	)
	if trace {
		specs = perLayer
		o, err = b.traced(workload, nil, nil)
	} else {
		o, _, err = b.endToEnd(workload)
	}
	if err != nil {
		return err
	}
	b.print(o, specs)
	line, err := json.Marshal(result{
		Correct: o.correct(), Attempted: o.attempted, Failed: o.failed,
		Metrics: report(specs, o.values),
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(b.out, "%s\n", line)
	if !o.correct() {
		return fmt.Errorf("%s: %d of %d failed, %d output-check violations", workload, o.failed, o.attempted, len(o.violations))
	}
	return nil
}

// suite runs every workload end to end, then every workload traced, and
// fails on any failure, violation, or broken workload invariant.
func (b *bench) suite() error {
	b.printEnv()
	var problems []string
	note := func(o *outcome) {
		if !o.correct() {
			problems = append(problems, fmt.Sprintf("%s: %d failed, %d violations", o.workload, o.failed, len(o.violations)))
		}
		for _, w := range o.broken {
			problems = append(problems, o.workload+": "+w)
		}
	}
	bases := make(map[string]*onlineRun)
	for _, w := range workloads {
		o, r, err := b.endToEnd(w.Name)
		if err != nil {
			return err
		}
		bases[w.Name] = r
		b.print(o, endToEnd)
		note(o)
	}
	for _, w := range workloads {
		o, err := b.traced(w.Name, bases[w.Name], bases[wlFedOne])
		if err != nil {
			return err
		}
		b.print(o, perLayer)
		note(o)
	}
	fmt.Fprintf(b.out, "spans and budget tables written to %s\n", b.outDir)
	if len(problems) > 0 {
		return fmt.Errorf("suite not clean:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}

// checkRepeat runs the end-to-end set twice on the same build and compares
// every metric of every workload against its own bound.
func (b *bench) checkRepeat() error {
	b.printEnv()
	var sets [2]map[string]*outcome
	for i := range sets {
		sets[i] = make(map[string]*outcome)
		for _, w := range workloads {
			o, _, err := b.endToEnd(w.Name)
			if err != nil {
				return err
			}
			if !o.correct() {
				return fmt.Errorf("%s: run %d not correct: %d failed, violations %v", w.Name, i+1, o.failed, o.violations)
			}
			sets[i][w.Name] = o
		}
	}
	exceeded := 0
	fmt.Fprintf(b.out, "%-14s %-18s %14s %14s %8s %8s\n", "workload", "metric", "first", "second", "gap", "bound")
	for _, w := range workloads {
		for _, s := range endToEnd {
			first, second := sets[0][w.Name].values[s.Name], sets[1][w.Name].values[s.Name]
			gap := repeatGap(first, second)
			flag := ""
			if gap > s.Bound {
				flag = "  EXCEEDED"
				exceeded++
			}
			fmt.Fprintf(b.out, "%-14s %-18s %14.6g %14.6g %7.2f%% %7.2f%%%s\n",
				w.Name, s.Name, first, second, 100*gap, 100*s.Bound, flag)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d metric(s) differ between two runs of the same build by more than their bound", exceeded)
	}
	return nil
}

// repeatGap is the relative distance between two runs of the same code.
func repeatGap(first, second float64) float64 { return ratio(math.Abs(second-first), first) }

// printEnv records the environment beside every result.
func (b *bench) printEnv() {
	fmt.Fprintf(b.out, "env: commit=%q cpu=%q generator_gomaxprocs=1 go=%s nproc=%d seconds=%g seed=%d server_gomaxprocs=%d\n",
		b.commit(), cpuModel(), runtime.Version(), runtime.NumCPU(), b.seconds, b.seed, serverProcs())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// commit is the checkout's HEAD, "unknown" when it is not a git repository.
func (b *bench) commit() string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = b.root
	// Never look for a repository above the checkout.
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(b.root))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
