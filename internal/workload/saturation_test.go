package workload

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"datastaging/internal/core"
	"datastaging/internal/gen"
	"datastaging/internal/model"
	"datastaging/internal/obs"
)

// counterClock returns a deterministic Now: each call advances 1 ms, so
// every admission epoch "takes" exactly 1 ms regardless of the machine.
func counterClock() func() time.Time {
	var ticks int64
	return func() time.Time {
		ticks++
		return time.Unix(0, ticks*int64(time.Millisecond))
	}
}

func satConfig() core.Config {
	return core.Config{
		Heuristic: core.FullPathOneDest,
		Criterion: core.C4,
		EU:        core.EUFromLog10(2),
		Weights:   model.Weights1x10x100,
	}
}

func TestSaturateDeterministic(t *testing.T) {
	base, err := gen.NetworkOnly(gen.Default(), 2)
	if err != nil {
		t.Fatal(err)
	}
	opts := SaturationOptions{
		Spec:   tinySpec(),
		Loads:  []float64{0.5, 2},
		Base:   base,
		Config: satConfig(),
		Now:    counterClock(),
	}
	res1, err := Saturate(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Now = counterClock()
	res2, err := Saturate(opts)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := res1.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := res2.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("saturation artifact not byte-stable under the fake clock")
	}

	for i, pt := range res1.Points {
		if pt.Requests <= 0 || pt.Arrivals <= 0 {
			t.Fatalf("point %d offered no work: %+v", i, pt)
		}
		if pt.Admitted > pt.Requests {
			t.Fatalf("point %d admitted %d of %d requests", i, pt.Admitted, pt.Requests)
		}
		if pt.AdmissionRate < 0 || pt.AdmissionRate > 1 {
			t.Fatalf("point %d admission rate %v", i, pt.AdmissionRate)
		}
		if pt.Efficiency < 0 || pt.Efficiency > 1+1e-9 {
			t.Fatalf("point %d efficiency %v", i, pt.Efficiency)
		}
		if pt.WeightedValue > pt.UpperBound+1e-9 {
			t.Fatalf("point %d value %v exceeds upper bound %v", i, pt.WeightedValue, pt.UpperBound)
		}
		// Under the counter clock every epoch lasts exactly one tick, so
		// the quantiles must equal the shared bucket interpolation of a
		// pure-1ms sample — the same math the service's /metrics gauges use.
		one := obs.SnapshotValues(obs.DurationBuckets, []float64{0.001})
		wantP50 := time.Duration(one.Quantile(0.50) * float64(time.Second))
		wantP99 := time.Duration(one.Quantile(0.99) * float64(time.Second))
		if pt.P50 != wantP50 || pt.P99 != wantP99 {
			t.Fatalf("point %d latencies p50=%v p99=%v, want interpolated %v/%v",
				i, pt.P50, pt.P99, wantP50, wantP99)
		}
		if pt.Epochs <= 0 {
			t.Fatalf("point %d ran no epochs", i)
		}
	}
	if res1.Points[1].Requests <= res1.Points[0].Requests {
		t.Fatal("4x load did not increase offered requests")
	}
}

func TestSaturateFindsKnee(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point saturation sweep is slow in -short mode")
	}
	base, err := gen.NetworkOnly(gen.Default(), 1)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Builtin("burst")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Saturate(SaturationOptions{
		Spec:   spec,
		Loads:  []float64{0.5, 4, 8},
		Base:   base,
		Config: satConfig(),
		Now:    counterClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.KneeIndex < 0 {
		t.Fatal("burst spec at 8x load did not saturate the paper network")
	}
	if res.KneeLoad != res.Points[res.KneeIndex].Load {
		t.Fatalf("knee load %v does not match knee point %d", res.KneeLoad, res.KneeIndex)
	}
	if err := res.CheckMonotone(0.05); err != nil {
		t.Fatalf("admission rate not monotone non-increasing: %v", err)
	}
}

func TestSaturateRejectsBadOptions(t *testing.T) {
	base, err := gen.NetworkOnly(gen.Default(), 2)
	if err != nil {
		t.Fatal(err)
	}
	good := SaturationOptions{Spec: tinySpec(), Loads: []float64{1}, Base: base, Config: satConfig()}
	cases := []struct {
		name string
		edit func(*SaturationOptions)
		want string
	}{
		{"no base", func(o *SaturationOptions) { o.Base = nil }, "base scenario"},
		{"no loads", func(o *SaturationOptions) { o.Loads = nil }, "load point"},
		{"bad load", func(o *SaturationOptions) { o.Loads = []float64{-1} }, "non-positive load"},
		{"no weights", func(o *SaturationOptions) { o.Config.Weights = nil }, "weights"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := good
			tc.edit(&o)
			_, err := Saturate(o)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// CheckMonotone verifies the admission rate never rises by more than
// tolerance as load grows, the sanity property TestSaturateFindsKnee
// asserts. Returns a descriptive error naming the violating pair.
func (r *SaturationResult) CheckMonotone(tolerance float64) error {
	for i := 1; i < len(r.Points); i++ {
		prev, cur := r.Points[i-1], r.Points[i]
		if cur.AdmissionRate > prev.AdmissionRate+tolerance {
			return fmt.Errorf(
				"workload: admission rate rose with load: %.3f at load %v -> %.3f at load %v (tolerance %.3f)",
				prev.AdmissionRate, prev.Load, cur.AdmissionRate, cur.Load, tolerance)
		}
	}
	return nil
}

func TestCheckMonotone(t *testing.T) {
	res := &SaturationResult{Points: []SaturationPoint{
		{Load: 1, AdmissionRate: 1.0},
		{Load: 2, AdmissionRate: 0.97},
		{Load: 4, AdmissionRate: 0.80},
	}}
	if err := res.CheckMonotone(0.05); err != nil {
		t.Fatalf("non-increasing curve rejected: %v", err)
	}
	res.Points[2].AdmissionRate = 0.99 // within nothing: 0.97 -> 0.99 is a 0.02 rise
	if err := res.CheckMonotone(0.05); err != nil {
		t.Fatalf("rise within tolerance rejected: %v", err)
	}
	res.Points[2].AdmissionRate = 1.05
	if err := res.CheckMonotone(0.05); err == nil {
		t.Fatal("rise beyond tolerance accepted")
	}
}
