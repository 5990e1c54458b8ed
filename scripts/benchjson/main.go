// Command benchjson converts `go test -bench -benchmem` output into the
// BENCH_core.json perf-trajectory file. Each benchmark record carries a
// frozen "baseline" (its numbers the first time it was ever recorded) and
// a "current" block refreshed on every run, so the file always shows
// before/after across PRs. It is stdlib-only and invoked by
// scripts/bench_baseline.sh (see `make bench-json`).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Measurement is one benchmark observation.
type Measurement struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Record pairs a benchmark's first-ever numbers with its latest.
type Record struct {
	Name     string      `json:"name"`
	Baseline Measurement `json:"baseline"`
	Current  Measurement `json:"current"`
}

// File is the BENCH_core.json schema.
type File struct {
	Note       string   `json:"note"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Record `json:"benchmarks"`
}

// benchLine matches e.g.
//
//	BenchmarkServeSoak/incremental-8  12  9876 ns/op  123 B/op  45 allocs/op
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+([0-9]+) B/op)?(?:\s+([0-9]+) allocs/op)?`)

func main() {
	in := flag.String("in", "", "go test -bench output file (default stdin)")
	out := flag.String("out", "BENCH_core.json", "JSON file to write (existing baselines are preserved)")
	allowMissing := flag.Bool("allow-missing", false,
		"carry recorded benchmarks absent from this run forward unchanged instead of failing (partial -bench runs)")
	maxRegress := flag.Float64("max-regress", 0,
		"fail (after writing -out) if any benchmark's current ns/op exceeds its frozen baseline by more than this fraction, e.g. 0.15 = 15%; 0 disables")
	flag.Parse()
	if err := run(*in, *out, *allowMissing, *maxRegress); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(inPath, outPath string, allowMissing bool, maxRegress float64) error {
	r := os.Stdin
	if inPath != "" {
		f, err := os.Open(inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}

	var cpu string
	current := map[string]Measurement{}
	var order []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "cpu: "); ok {
			cpu = strings.TrimSpace(rest)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		meas := Measurement{NsPerOp: atof(m[2]), BytesPerOp: atoi(m[3]), AllocsPerOp: atoi(m[4])}
		if _, seen := current[name]; !seen {
			order = append(order, name)
		}
		current[name] = meas
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(current) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}

	baselines := map[string]Measurement{}
	prevRecords := map[string]Record{}
	if prev, err := os.ReadFile(outPath); err == nil {
		var pf File
		if err := json.Unmarshal(prev, &pf); err != nil {
			return fmt.Errorf("existing %s is not valid: %w", outPath, err)
		}
		for _, rec := range pf.Benchmarks {
			baselines[rec.Name] = rec.Baseline
			prevRecords[rec.Name] = rec
		}
	}

	// A benchmark recorded in the file but absent from this run is either a
	// rename (its new name shows up as "added") or a deleted benchmark.
	// Either way, regenerating would silently drop the record — and a rename
	// would restart its perf trajectory from scratch — so fail loudly with
	// the diff unless the caller opts into carrying the old records forward.
	var missing, added []string
	for name := range prevRecords {
		if _, ok := current[name]; !ok {
			missing = append(missing, name)
		}
	}
	for _, name := range order {
		if _, ok := prevRecords[name]; !ok && len(prevRecords) > 0 {
			added = append(added, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(added)
	if len(missing) > 0 && !allowMissing {
		return fmt.Errorf("benchmark set changed against %s:\n"+
			"  recorded but not in this run: %s\n"+
			"  in this run but not recorded: %s\n"+
			"a rename would silently reset its baseline; if intentional, delete the old "+
			"records from %s, or pass -allow-missing to carry them forward unchanged "+
			"(required for partial BENCH= runs)",
			outPath, strings.Join(missing, ", "), joinOrNone(added), outPath)
	}
	order = append(order, missing...)

	sort.Strings(order)
	out := File{
		Note: "Scheduling hot-path benchmarks (internal/core, internal/dijkstra). " +
			"'baseline' is frozen at a benchmark's first recording; 'current' is the " +
			"latest run via `make bench-json`. Delete a record (or the file) to re-baseline.",
		CPU: cpu,
	}
	for _, name := range order {
		cur, ran := current[name]
		if !ran {
			// -allow-missing: not measured this run; keep the record as-is.
			out.Benchmarks = append(out.Benchmarks, prevRecords[name])
			continue
		}
		base, ok := baselines[name]
		if !ok {
			base = cur
		}
		out.Benchmarks = append(out.Benchmarks, Record{Name: name, Baseline: base, Current: cur})
	}

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return checkRegressions(out, current, baselines, maxRegress)
}

// checkRegressions fails when a benchmark measured this run is slower than
// its frozen baseline by more than the allowed fraction. Only benchmarks
// with a pre-existing baseline are judged — a first recording IS the
// baseline — and records merely carried forward by -allow-missing are
// skipped (their "current" is stale, not this run's). The check runs after
// the output file is written, so the trajectory is on disk (and
// inspectable in CI artifacts) even when the gate trips.
func checkRegressions(out File, current, baselines map[string]Measurement, maxRegress float64) error {
	if maxRegress <= 0 {
		return nil
	}
	var bad []string
	for _, rec := range out.Benchmarks {
		if _, ran := current[rec.Name]; !ran {
			continue
		}
		base, hadBaseline := baselines[rec.Name]
		if !hadBaseline || base.NsPerOp <= 0 {
			continue
		}
		if rec.Current.NsPerOp > base.NsPerOp*(1+maxRegress) {
			bad = append(bad, fmt.Sprintf("  %s: %.0f ns/op vs baseline %.0f (%+.1f%%, limit +%.0f%%)",
				rec.Name, rec.Current.NsPerOp, base.NsPerOp,
				100*(rec.Current.NsPerOp/base.NsPerOp-1), 100*maxRegress))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("%d benchmark(s) regressed past the -max-regress=%.2f tolerance:\n%s\n"+
		"if the slowdown is intentional, delete the stale records from the JSON to re-baseline",
		len(bad), maxRegress, strings.Join(bad, "\n"))
}

func joinOrNone(names []string) string {
	if len(names) == 0 {
		return "(none)"
	}
	return strings.Join(names, ", ")
}

func atof(s string) float64 {
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

func atoi(s string) int64 {
	if s == "" {
		return 0
	}
	v, _ := strconv.ParseInt(s, 10, 64)
	return v
}
