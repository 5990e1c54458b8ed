package dynamic

import (
	"testing"
	"time"

	"datastaging/internal/gen"
	"datastaging/internal/simtime"
	"datastaging/internal/testnet"
)

// BenchmarkEngineIncremental measures one steady-state admission epoch over
// a pre-grown world: the first epoch commits the whole scenario, then every
// timed iteration advances the planning floor by one second and replans.
// The incremental path does O(delta) work (here, delta is empty); the
// fullreplay sub-benchmark pins the old rebuild-from-history cost as the
// frozen baseline the incremental engine is judged against.
func BenchmarkEngineIncremental(b *testing.B) {
	sc := testnet.Generate(func() gen.Params {
		p := gen.Default()
		p.Machines = gen.IntRange{Min: 8, Max: 8}
		p.RequestsPerMachine = gen.IntRange{Min: 8, Max: 8}
		return p
	}(), 7)

	for _, mode := range []struct {
		name string
		full bool
	}{
		{"incremental", false},
		{"fullreplay", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			eng, err := NewEngine(sc, cfgC4())
			if err != nil {
				b.Fatal(err)
			}
			eng.SetFullReplay(mode.full)
			if _, err := eng.ReplanAt(0); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			at := simtime.Instant(0)
			for i := 0; i < b.N; i++ {
				at = at.Add(time.Second)
				if _, err := eng.ReplanAt(at); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
