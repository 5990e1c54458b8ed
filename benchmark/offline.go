package main

import (
	"fmt"
	"os"
	"slices"
	"syscall"
	"time"

	"datastaging"
)

// scenariosPerSecond sizes offline_paper: --seconds S schedules
// S*scenariosPerSecond scenarios under each of the three heuristics, which
// takes about S seconds on the reference box at the commit that added the
// benchmark. The work is fixed by (seed, seconds), not by the clock, so
// value_efficiency repeats bit for bit and a faster scheduler finishes early
// instead of being handed different inputs.
const scenariosPerSecond = 48

// offlineSetupRounds is how many times the scenario set is generated to
// sample setup_s, before and again after the timed loop (see setupStat).
const offlineSetupRounds = 3

// offlineCap stops a run that a much slower scheduler would otherwise push
// past the harness's time limit; calls not made count as failed.
const offlineCap = 120 * time.Second

var offlineHeuristics = []struct {
	h      datastaging.Heuristic
	metric string
}{
	{datastaging.PartialPath, "core.schedule_ms.partial"},
	{datastaging.FullPathOneDest, "core.schedule_ms.full_one"},
	{datastaging.FullPathAllDests, "core.schedule_ms.full_all"},
}

func offlineConfig(h datastaging.Heuristic) datastaging.Config {
	return datastaging.Config{
		Heuristic: h, Criterion: datastaging.C4,
		EU: datastaging.EUFromLog10(2), Weights: weights,
	}
}

func offlineScenario(seed int64, i int) (*datastaging.Scenario, error) {
	return datastaging.Generate(datastaging.DefaultParams(), seed*1000+int64(i))
}

// offlineRun is what the closed scheduling loop observed.
type offlineRun struct {
	callMS     []float64    // one per Schedule call whose result validated, in call order
	perHeur    [3][]float64 // the same, split by heuristic
	cpuS       float64      // process CPU inside the timed calls
	requests   int          // requests scheduled, summed over calls
	value      float64
	upper      float64
	setupS     []float64
	rssMB      float64
	stealShr   float64
	attempted  int
	violations []string

	// Exact work counts from Result.Stats, summed over calls.
	dijkstraRuns, cacheHits, invalidations, commits int

	probes map[string]float64 // traced pass only
}

func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runOffline is the paper's own use of the library: one goroutine calling
// datastaging.Schedule. With trace set it also runs the kernel probes on
// the states of its own scenarios.
func runOffline(seed int64, seconds float64, trace bool) (*offlineRun, error) {
	n := int(seconds * scenariosPerSecond)
	if n < 1 {
		n = 1
	}
	r := &offlineRun{attempted: n * len(offlineHeuristics)}
	probeSetup := func() error {
		for round := 0; round < offlineSetupRounds; round++ {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if _, err := offlineScenario(seed, i); err != nil {
					return err
				}
			}
			r.setupS = append(r.setupS, time.Since(t0).Seconds())
		}
		return nil
	}
	if err := probeSetup(); err != nil {
		return nil, err
	}
	// The peak is the scheduling loop's own: not the set-up rounds' garbage,
	// nor, in the suite, whatever an earlier workload left in this process.
	resetPeakRSS()

	var pr *prober
	if trace {
		pr = newProber()
	}
	begin := time.Now()
	steal := startStealMeter()
	for i := 0; i < n && time.Since(begin) < offlineCap; i++ {
		t0 := time.Now()
		sc, err := offlineScenario(seed, i)
		if err != nil {
			return nil, err
		}
		genMS := msSince(t0)
		for h, heur := range offlineHeuristics {
			cfg := offlineConfig(heur.h)
			cpu0 := selfCPUSeconds()
			t0 := time.Now()
			res, err := datastaging.Schedule(sc, cfg)
			ms := msSince(t0)
			r.cpuS += selfCPUSeconds() - cpu0
			if err != nil {
				r.violations = append(r.violations, fmt.Sprintf("scenario %d %v: %v", i, heur.h, err))
				continue
			}
			t0 = time.Now()
			err = datastaging.ValidateSchedule(sc, res.Transfers)
			validateMS := msSince(t0)
			if err != nil {
				r.violations = append(r.violations, fmt.Sprintf("scenario %d %v: %v", i, heur.h, err))
				continue
			}
			r.callMS = append(r.callMS, ms)
			r.perHeur[h] = append(r.perHeur[h], ms)
			m := datastaging.Measure(sc, res, weights)
			r.requests += m.TotalRequests
			r.value += m.WeightedValue
			r.upper += datastaging.UpperBound(sc, weights)
			r.dijkstraRuns += res.Stats.DijkstraRuns
			r.cacheHits += res.Stats.CacheHits
			r.invalidations += res.Stats.Invalidations
			r.commits += res.Stats.Commits
			if pr != nil {
				pr.add("validator.validate_ms", validateMS)
				if h == 0 {
					pr.add("gen.generate_ms", genMS)
					pr.kernels(sc, res.Transfers, unsatisfied(sc, res.Satisfied))
				}
			}
		}
	}
	r.stealShr = steal.share()
	if len(r.callMS) > 0 {
		// Determinism: the first call repeated must reproduce its schedule.
		sc, err := offlineScenario(seed, 0)
		if err != nil {
			return nil, err
		}
		a, errA := datastaging.Schedule(sc, offlineConfig(offlineHeuristics[0].h))
		b, errB := datastaging.Schedule(sc, offlineConfig(offlineHeuristics[0].h))
		if errA != nil || errB != nil || !slices.Equal(a.Transfers, b.Transfers) {
			r.violations = append(r.violations, "scenario 0: two Schedule calls on the same input disagree")
		}
	}
	var err error
	if r.rssMB, err = peakRSSMB(os.Getpid()); err != nil {
		return nil, err
	}
	if pr != nil {
		r.probes = pr.means()
	}
	return r, probeSetup()
}

// unsatisfied lists the scenario's requests missing from a satisfied map.
func unsatisfied(sc *datastaging.Scenario, sat map[datastaging.RequestID]datastaging.Instant) []datastaging.RequestID {
	var out []datastaging.RequestID
	for i := range sc.Items {
		for k := range sc.Items[i].Requests {
			id := datastaging.RequestID{Item: sc.Items[i].ID, Index: k}
			if _, ok := sat[id]; !ok {
				out = append(out, id)
			}
		}
	}
	return out
}

// harness names what was wrong on the measuring side of the run. A closed
// loop has no schedule to fall behind; stolen CPU is all it can see.
func (r *offlineRun) harness() []string { return stealWarning(r.stealShr) }

// endToEnd: a decision is one Schedule call, a req one scheduled request.
func (r *offlineRun) endToEnd() (values map[string]float64, attempted, failed int) {
	lat := sortedCopy(r.callMS)
	return map[string]float64{
		"decision_p50_ms":  percentile(lat, 50),
		"decision_p95_ms":  percentile(lat, 95),
		"within_slo_share": float64(countAtMost(lat, sloMS)) / float64(r.attempted),
		"value_efficiency": ratio(r.value, r.upper),
		"cpu_ms_per_req":   ratio(r.cpuS*1000, float64(r.requests)),
		"peak_rss_mb":      r.rssMB,
		"setup_s":          setupStat(r.setupS),
	}, r.attempted, r.attempted - len(r.callMS)
}

// perLayer: what the traced pass adds — per-heuristic cost, exact work
// counts from Result.Stats, and the kernel probes.
func (r *offlineRun) perLayer() map[string]float64 {
	v := make(map[string]float64)
	for k, x := range r.probes {
		v[k] = x
	}
	for h, heur := range offlineHeuristics {
		v[heur.metric] = mean(r.perHeur[h])
	}
	v["loadgen.decision_p99_ms"] = percentile(sortedCopy(r.callMS), 99)
	v["loadgen.host_steal_share"] = r.stealShr
	reqs, calls := float64(r.requests), float64(len(r.callMS))
	v["core.dijkstra_runs_per_schedule"] = ratio(float64(r.dijkstraRuns), calls)
	v["core.dijkstra_runs_per_req"] = ratio(float64(r.dijkstraRuns), reqs)
	v["core.forest_hit_ratio"] = ratio(float64(r.cacheHits), float64(r.cacheHits+r.dijkstraRuns))
	v["core.invalidations_per_req"] = ratio(float64(r.invalidations), reqs)
	v["core.commits_per_req"] = ratio(float64(r.commits), reqs)
	return v
}
