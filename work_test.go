package datastaging_test

import (
	"bytes"
	"cmp"
	"context"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"datastaging/internal/core"
	"datastaging/internal/dynamic"
	"datastaging/internal/gen"
	"datastaging/internal/model"
	"datastaging/internal/obs"
	"datastaging/internal/serve"
	"datastaging/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// workConfig is the benchmark's own scheduler setup (and stagesvc's
// default): C4, E-U ratio 10^2, weights 1/10/100.
func workConfig(h core.Heuristic, o *obs.Obs) core.Config {
	return core.Config{
		Heuristic: h, Criterion: core.C4, EU: core.EUFromLog10(2),
		Weights: model.Weights1x10x100, Obs: o,
	}
}

// workOffline schedules the first eight offline_paper seed-1 scenarios
// under each of the three heuristics.
func workOffline(o *obs.Obs) error {
	for i := 0; i < 8; i++ {
		sc, err := gen.Generate(gen.Default(), 1000+int64(i))
		if err != nil {
			return err
		}
		for _, h := range []core.Heuristic{core.PartialPath, core.FullPathOneDest, core.FullPathAllDests} {
			if _, err := core.Schedule(sc, workConfig(h, o)); err != nil {
				return err
			}
		}
	}
	return nil
}

// workSoak replays the soak builtin (6,194 arrivals) offline through
// dynamic.Simulate, BenchmarkReplaySoak's input.
func workSoak(o *obs.Obs) error {
	spec, err := workload.Builtin("soak")
	if err != nil {
		return err
	}
	base, err := gen.NetworkOnly(gen.Default(), 3)
	if err != nil {
		return err
	}
	arrivals, err := spec.Compile(base.Network.NumMachines())
	if err != nil {
		return err
	}
	sc, events, err := workload.NewTrace(spec.Name, base.Network.NumMachines(), &spec, arrivals).Materialize(base)
	if err != nil {
		return err
	}
	_, err = dynamic.Simulate(sc, workConfig(core.FullPathOneDest, o), events)
	return err
}

// oversubSpec is paper_oversub's traffic mix (sizes 4-128 MiB, one or two
// sources, one to three destinations, 30 min to 3 h of slack, uniform
// priorities) at its simulated rate of 120 arrivals an hour. No builtin is
// dense enough to reject a third of its requests on a paper network.
var oversubSpec = workload.Spec{
	Name: "oversub",
	Seed: 16,
	Phases: []workload.Phase{
		{Name: "flat", Duration: 13*time.Hour + 20*time.Minute, PerHour: 120,
			PriorityWeights: []float64{1, 1, 1},
			SizeMinBytes:    4 << 20, SizeMaxBytes: 128 << 20,
			SlackMin: 30 * time.Minute, SlackMax: 3 * time.Hour,
			MaxSources: 2, MaxDests: 3},
	},
}

// workOversub replays oversubSpec through a virtual-clock admission
// engine on paper network 3, one epoch per arrival: capacity-blocked
// replans, optimistic bounds and rejection diagnosis.
func workOversub(o *obs.Obs) error {
	base, err := gen.NetworkOnly(gen.Default(), 3)
	if err != nil {
		return err
	}
	arrivals, err := oversubSpec.Compile(base.Network.NumMachines())
	if err != nil {
		return err
	}
	e, err := serve.New(base, serve.Options{Config: workConfig(core.FullPathOneDest, o), VirtualClock: true})
	if err != nil {
		return err
	}
	for _, a := range arrivals {
		if err := e.Advance(a.At); err != nil {
			return err
		}
		if _, err := e.Submit(serve.SubmissionFromArrival(a)); err != nil {
			return err
		}
		if err := e.Flush(); err != nil {
			return err
		}
	}
	return e.Drain(context.Background())
}

// workCounters runs one input on a fresh registry at the given GOMAXPROCS
// and returns every counter it holds. Gauges and histograms are left out:
// they carry wall time.
func workCounters(t *testing.T, run func(*obs.Obs) error, procs int) map[string]int64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	o := obs.New()
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	return o.Snapshot().Counters
}

// TestWorkCounters pins the exact work every layer does on three fixed
// inputs: forests, pops, relaxations, slot queries, commits, replans,
// verdicts. Unlike wall time these counts are the same on any host, so a
// speed-up names the counter it moved and a lost cut shows here at once.
// A change that moves a counter on purpose regenerates the golden with
//
//	go test -run TestWorkCounters -update .
//
// and says why in its commit.
func TestWorkCounters(t *testing.T) {
	inputs := []struct {
		name string
		run  func(*obs.Obs) error
	}{
		{"offline", workOffline},
		{"soak", workSoak},
		{"oversub", workOversub},
	}
	got := map[string]int64{} // "input counter" -> total
	for _, in := range inputs {
		start := time.Now()
		// A counter that starts to depend on goroutine scheduling fails
		// here, not as a golden diff in some later change.
		counts := workCounters(t, in.run, 1)
		if again := workCounters(t, in.run, 2); !maps.Equal(again, counts) {
			t.Fatalf("%s: counters differ between GOMAXPROCS 1 and 2:\n%v\n%v", in.name, counts, again)
		}
		t.Logf("%s: %v for two runs", in.name, time.Since(start).Round(time.Millisecond))
		for name, v := range counts {
			got[in.name+" "+name] = v
		}
	}
	admitted, rejected := got["oversub serve.admitted_total"], got["oversub serve.rejected_total"]
	share := float64(rejected) / float64(admitted+rejected)
	t.Logf("oversub: %d of %d requests rejected (%.1f%%)", rejected, admitted+rejected, 100*share)
	if share < 0.3 {
		t.Errorf("oversub rejects %.1f%% of requests; the input must stay oversubscribed (>= 30%%)", 100*share)
	}

	var out bytes.Buffer
	for _, k := range sortedKeys(got) {
		fmt.Fprintf(&out, "%s %d\n", k, got[k])
	}
	golden := filepath.Join("testdata", "work.golden")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if bytes.Equal(out.Bytes(), data) {
		return
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			want[line[:i]] = line[i+1:]
		}
	}
	for _, k := range sortedKeys(got) {
		if g := fmt.Sprint(got[k]); want[k] != g {
			t.Errorf("%s: got %s, golden %s", k, g, cmp.Or(want[k], "none"))
		}
		delete(want, k)
	}
	for _, k := range sortedKeys(want) {
		t.Errorf("%s: in the golden, not counted", k)
	}
	t.Logf("run with -update to regenerate %s", golden)
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
