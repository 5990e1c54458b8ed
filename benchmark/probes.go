package main

import (
	"time"

	"datastaging"
	"datastaging/internal/dijkstra"
	"datastaging/internal/explain"
	"datastaging/internal/resource"
	"datastaging/internal/simtime"
	"datastaging/internal/state"
)

// prober times calls into single layers from the outside. These are the
// only places the benchmark reaches past the datastaging façade, and each
// probe uses exactly one entry point: dijkstra.(*Scratch).Compute,
// state.New + (*State).EarliestTransferSlot, simtime.(*Set).EarliestFit,
// resource.(*Capacity).MinAvailable, explain.Diagnose.
type prober struct {
	sum, n  map[string]float64
	scratch dijkstra.Scratch
	set     simtime.Set
	cap     *resource.Capacity
}

const (
	probeSetIntervals = 1024
	probeCapSegments  = 256
	// Per scenario: how many items, links and unsatisfied requests a probe
	// samples, so a traced pass stays a small fraction of the run.
	probeItems     = 8
	probeLinks     = 64
	probeDiagnoses = 4
)

func newProber() *prober {
	p := &prober{sum: map[string]float64{}, n: map[string]float64{}}
	// 1024 free intervals of 5 s every 10 s; 256 capacity segments from 128
	// disjoint reservations.
	for i := 0; i < probeSetIntervals; i++ {
		p.set.Add(simtime.Span(simtime.At(time.Duration(i)*10*time.Second), 5*time.Second))
	}
	p.cap = resource.NewCapacity(1 << 40)
	for i := 0; i < probeCapSegments/2; i++ {
		iv := simtime.Span(simtime.At(time.Duration(i)*10*time.Second), 5*time.Second)
		if err := p.cap.Reserve(int64(i+1), iv); err != nil {
			panic(err) // 2^40 bytes cannot run out
		}
	}
	return p
}

func (p *prober) add(name string, v float64) {
	p.sum[name] += v
	p.n[name]++
}

func (p *prober) means() map[string]float64 {
	out := make(map[string]float64, len(p.sum))
	for k, s := range p.sum {
		out[k] = s / p.n[k]
	}
	return out
}

// probeSink keeps the compiler from discarding probe results.
var probeSink int64

// kernels times each kernel on one scenario: shortest-path forests and slot
// queries against the idle state, diagnosis against the given schedule, and
// the two synthetic interval structures.
func (p *prober) kernels(sc *datastaging.Scenario, transfers []datastaging.Transfer, unsat []datastaging.RequestID) {
	st := state.New(sc)
	if n := min(len(sc.Items), probeItems); n > 0 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			plan := p.scratch.Compute(st, sc.Items[i].ID, nil)
			probeSink += int64(len(plan.Arrival))
		}
		p.add("dijkstra.compute_us", float64(time.Since(t0))/float64(n)/1e3)
	}

	links := sc.Network.Links
	if len(links) > 0 {
		stride := max(1, len(links)/probeLinks)
		queries := 0
		t0 := time.Now()
		for i := 0; i < len(links); i += stride {
			for _, ready := range []time.Duration{0, 6 * time.Hour, 12 * time.Hour} {
				at, _ := st.EarliestTransferSlot(links[i].ID, simtime.At(ready), time.Minute)
				probeSink += int64(at)
				queries++
			}
		}
		p.add("state.slot_query_ns", float64(time.Since(t0))/float64(queries))
	}

	if n := min(len(unsat), probeDiagnoses); n > 0 {
		t0 := time.Now()
		for _, id := range unsat[:n] {
			if rep, err := explain.Diagnose(sc, transfers, id); err == nil {
				probeSink += int64(rep.Verdict)
			}
		}
		p.add("explain.diagnose_us", float64(time.Since(t0))/float64(n)/1e3)
	}

	t0 := time.Now()
	for i := 0; i < probeSetIntervals; i++ {
		at, _ := p.set.EarliestFit(simtime.At(time.Duration(i)*10*time.Second+6*time.Second), 4*time.Second)
		probeSink += int64(at)
	}
	p.add("simtime.earliest_fit_ns", float64(time.Since(t0))/probeSetIntervals)

	t0 = time.Now()
	for i := 0; i < probeCapSegments; i++ {
		from := simtime.At(time.Duration(i) * 5 * time.Second)
		probeSink += p.cap.MinAvailable(simtime.Interval{Start: from, End: from.Add(5 * time.Minute)})
	}
	p.add("resource.min_available_ns", float64(time.Since(t0))/probeCapSegments)
}
