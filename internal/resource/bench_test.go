package resource

import (
	"testing"
	"time"

	"datastaging/internal/simtime"
)

// benchCapacity returns a profile with ~n segments: n staggered
// reservations whose start and end instants never coincide, the shape of a
// storage-constrained machine late in a large run.
func benchCapacity(n int) *Capacity {
	c := NewCapacity(int64(n) * 100)
	for i := 0; i < n; i++ {
		start := simtime.At(time.Duration(i) * 3 * time.Second)
		iv := simtime.Interval{Start: start, End: start.Add(7 * time.Second)}
		if err := c.Reserve(10, iv); err != nil {
			panic(err)
		}
	}
	return c
}

// capacityBenchQueries returns query windows spread across a benchCapacity(n)
// profile, alternating a short probe with the dominant real shape: a hold
// interval running from the candidate arrival to the item's garbage-collection
// instant near the end of the horizon, which crosses most of the profile's
// segments.
func capacityBenchQueries(n int) []simtime.Interval {
	seed := uint64(0x9e3779b97f4a7c15)
	span := int64(n) * int64(3*time.Second)
	out := make([]simtime.Interval, 1024)
	for i := range out {
		seed = seed*6364136223846793005 + 1442695040888963407
		start := simtime.Instant(int64(seed>>1) % span)
		end := start.Add(30 * time.Second)
		if i%2 == 1 {
			end = simtime.Instant(span)
		}
		out[i] = simtime.Interval{Start: start, End: end}
	}
	return out
}

// BenchmarkCapacityMinAvailable measures the interval-minimum query on a
// dense ~1k-segment profile: the segment-min indexed kernel, O(1) per query
// after the lazily rebuilt index. BenchmarkCapacityMinAvailableLinear is the
// same workload on the linear walk — the before/after pair in
// BENCH_core.json.
func BenchmarkCapacityMinAvailable(b *testing.B) {
	const n = 1000
	c := benchCapacity(n)
	queries := capacityBenchQueries(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.MinAvailable(queries[i%len(queries)]) < 0 {
			b.Fatal("negative availability")
		}
	}
}

// BenchmarkCapacityMinAvailableLinear runs the identical workload through the
// linear walk (the small-profile path and differential-test oracle), so the
// cost the index removes stays measured in BENCH_core.json.
func BenchmarkCapacityMinAvailableLinear(b *testing.B) {
	const n = 1000
	c := benchCapacity(n)
	queries := capacityBenchQueries(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.minAvailableLinear(queries[i%len(queries)]) < 0 {
			b.Fatal("negative availability")
		}
	}
}
