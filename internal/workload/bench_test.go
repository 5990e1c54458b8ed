package workload

import (
	"testing"

	"datastaging/internal/dynamic"
	"datastaging/internal/gen"
)

// BenchmarkReplaySoak measures the offline replay path end to end: the
// soak builtin (about 6,200 small arrivals over a 24 h day) materialized
// over a generated network, then replayed through dynamic.Simulate, one
// admission epoch per arrival instant. Each epoch should cost the arrivals
// it adds, not the items still to come; a per-item scan over the whole
// trace shows up here as time growing with the trace length.
func BenchmarkReplaySoak(b *testing.B) {
	spec, err := Builtin("soak")
	if err != nil {
		b.Fatal(err)
	}
	base, err := gen.NetworkOnly(gen.Default(), 3)
	if err != nil {
		b.Fatal(err)
	}
	machines := base.Network.NumMachines()
	arrivals, err := spec.Compile(machines)
	if err != nil {
		b.Fatal(err)
	}
	sc, events, err := NewTrace(spec.Name, machines, &spec, arrivals).Materialize(base)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dynamic.Simulate(sc, satConfig(), events); err != nil {
			b.Fatal(err)
		}
	}
}
