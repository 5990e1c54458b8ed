package shard

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"datastaging/internal/obs"
	"datastaging/internal/scenario"
	"datastaging/internal/serve"
	"datastaging/internal/testnet"
)

// chordNet is a ring with distance-2 and distance-3 chords: every machine
// links to its three nearest ring successors in both directions, which
// makes the per-epoch planning cost (candidate enumeration, Dijkstra
// sweeps) grow with the region size the way a real replicated mesh does.
func chordNet(b testing.TB, n int, bps int64) *scenario.Scenario {
	b.Helper()
	bd := testnet.NewBuilder()
	ms := bd.Machines(n, 1<<40)
	for i := 0; i < n; i++ {
		for _, d := range []int{1, 2, 3} {
			j := (i + d) % n
			bd.Link(ms[i], ms[j], 0, 24*time.Hour, bps)
			bd.Link(ms[j], ms[i], 0, 24*time.Hour, bps)
		}
	}
	return bd.Build("chordring")
}

// BenchmarkShardedAdmission measures why partitioning pays even on one
// core: every submission is local to a contiguous 12-machine block of the
// 96-machine chord ring, so at any shard count each admission epoch
// replans only its own region's world — fewer links for the Dijkstra
// sweeps, smaller snapshots to copy, and a committed history 1/K the
// size. One timed iteration is a fixed soak of soakLen submissions, each
// flushed as its own epoch (an Advance to the virtual now), matching
// BenchmarkServeSoak's growing-world shape. The ns/op ratio
// shards1/shards8 is the single-core throughput-scaling figure.
func BenchmarkShardedAdmission(b *testing.B) {
	const (
		machines = 96
		blocks   = 8
		soakLen  = 128
	)
	names := make([]string, soakLen)
	for i := range names {
		names[i] = fmt.Sprintf("b-%d", i)
	}
	sub := func(i int) serve.Submission {
		base := (i % blocks) * (machines / blocks)
		return serve.Submission{
			Name:      names[i],
			SizeBytes: 256 << 10,
			Sources:   []serve.SourceSpec{{Machine: base + i%3}},
			Requests: []serve.RequestSpec{{
				Machine:  base + 3,
				Deadline: serve.Instant(20 * time.Hour),
				Priority: i % 3,
			}},
		}
	}
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards%d", k), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				sc := chordNet(b, machines, 8<<20)
				plan := blockPlan(b, sc, machines, k)
				svc, err := New(sc, plan, serve.Options{
					Config:       cfgShard(obs.New()),
					VirtualClock: true,
					QueueCap:     soakLen + 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				runtime.GC() // keep prior iterations' dead worlds out of the timed window
				b.StartTimer()
				for i := 0; i < soakLen; i++ {
					if _, err := svc.Submit(sub(i)); err != nil {
						b.Fatal(err)
					}
					if err := svc.Advance(svc.Now()); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
