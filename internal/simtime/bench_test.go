package simtime

import (
	"testing"
	"time"
)

// denseBenchSet returns a set of n one-second free intervals separated by
// one-second gaps: the shape of a heavily committed link timeline, where
// the earliest-fit query has many intervals to consider.
func denseBenchSet(n int, phase time.Duration) Set {
	ivs := make([]Interval, n)
	for i := range ivs {
		start := At(time.Duration(i)*2*time.Second + phase)
		ivs[i] = Interval{Start: start, End: start.Add(time.Second)}
	}
	return Set{ivs: ivs}
}

// benchReady returns a deterministic pseudo-random sequence of ready
// instants spread over the span of a denseBenchSet(n, ·), so the benchmark
// exercises queries deep into the timeline (where a from-zero scan pays
// O(n) and an indexed lookup pays O(log n)).
func benchReady(count, n int) []Instant {
	out := make([]Instant, count)
	seed := uint64(0x9e3779b97f4a7c15)
	// Stay two intervals clear of the end so a fit always exists.
	span := int64(n-2) * int64(2*time.Second)
	for i := range out {
		seed = seed*6364136223846793005 + 1442695040888963407
		out[i] = Instant(int64(seed>>1) % span)
	}
	return out
}

// BenchmarkEarliestFit measures the single-set earliest-fit primitive on a
// dense 1k-interval set with ready instants spread across the whole
// timeline: the binary search to the first candidate.
func BenchmarkEarliestFit(b *testing.B) {
	s := denseBenchSet(1000, 0)
	ready := benchReady(1024, 1000)
	d := 500 * time.Millisecond
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.EarliestFit(ready[i%len(ready)], d); !ok {
			b.Fatal("no fit on a mostly free set")
		}
	}
}

// BenchmarkEarliestFitN measures the serialized-transfer slot query: the
// earliest instant free on the link, the send port, and the receive port
// simultaneously: the fused cursor walk, which materializes no
// intersection set.
func BenchmarkEarliestFitN(b *testing.B) {
	link := denseBenchSet(1000, 0)
	send := denseBenchSet(1000, 250*time.Millisecond)
	recv := denseBenchSet(1000, 500*time.Millisecond)
	ready := benchReady(1024, 1000)
	d := 100 * time.Millisecond
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EarliestFitN(ready[i%len(ready)], d, &link, &send, &recv)
	}
}
