package workload

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"datastaging/internal/gen"
	"datastaging/internal/simtime"
)

// tinySpec is a small two-phase spec used across the tests: a calm hour
// and a busy hour, compiled against a handful of machines.
func tinySpec() Spec {
	return Spec{
		Name: "tiny",
		Seed: 7,
		Phases: []Phase{
			{Name: "calm", Duration: time.Hour, PerHour: 3,
				PriorityWeights: []float64{1, 1, 1},
				SizeMinBytes:    1 << 20, SizeMaxBytes: 8 << 20,
				SlackMin: time.Hour, SlackMax: 2 * time.Hour},
			{Name: "busy", Duration: time.Hour, PerHour: 12,
				PriorityWeights: []float64{0, 1, 2},
				SizeMinBytes:    1 << 20, SizeMaxBytes: 4 << 20,
				SlackMin: 30 * time.Minute, SlackMax: time.Hour,
				MaxSources: 2, MaxDests: 2},
		},
	}
}

// specSpan is the total duration of the spec's phases.
func specSpan(s Spec) time.Duration {
	var d time.Duration
	for _, ph := range s.Phases {
		d += ph.Duration
	}
	return d
}

func TestCompileDeterministic(t *testing.T) {
	spec := tinySpec()
	a, err := spec.Compile(6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Compile(6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec and machine count compiled to different streams")
	}
	if len(a) == 0 {
		t.Fatal("tiny spec compiled to zero arrivals")
	}
	var buf1, buf2 bytes.Buffer
	if err := WriteTrace(&buf1, NewTrace(spec.Name, 6, &spec, a)); err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(&buf2, NewTrace(spec.Name, 6, &spec, b)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("serialized traces differ for identical compilations")
	}
}

func TestCompilePhaseIsolation(t *testing.T) {
	spec := tinySpec()
	base, err := spec.Compile(6)
	if err != nil {
		t.Fatal(err)
	}
	// Raising the second phase's rate must not reshuffle the first phase's
	// draws: each phase has its own sub-stream.
	edited := spec
	edited.Phases = append([]Phase(nil), spec.Phases...)
	edited.Phases[1].PerHour *= 3
	got, err := edited.Compile(6)
	if err != nil {
		t.Fatal(err)
	}
	strip := func(arrivals []Arrival, phase string) []Arrival {
		var out []Arrival
		for _, a := range arrivals {
			if a.Phase == phase {
				a.Name = "" // names depend on the global sort position
				out = append(out, a)
			}
		}
		return out
	}
	if !reflect.DeepEqual(strip(base, "calm"), strip(got, "calm")) {
		t.Fatal("editing phase 2 changed phase 1's arrivals")
	}
}

func TestCompileSortedAndInWindow(t *testing.T) {
	spec := tinySpec()
	arrivals, err := spec.Compile(6)
	if err != nil {
		t.Fatal(err)
	}
	total := specSpan(spec)
	for i, a := range arrivals {
		if i > 0 && a.At < arrivals[i-1].At {
			t.Fatalf("arrival %d at %v precedes arrival %d", i, a.At, i-1)
		}
		if a.At <= 0 || a.At >= simtime.At(total) {
			t.Fatalf("arrival %d instant %v outside (0, %v)", i, a.At, total)
		}
		if a.Phase != "calm" && a.Phase != "busy" {
			t.Fatalf("arrival %d has unknown phase %q", i, a.Phase)
		}
	}
}

func TestScaleRateScalesArrivals(t *testing.T) {
	spec := tinySpec()
	base, err := spec.Compile(6)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := spec.ScaleRate(4).Compile(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(scaled) < 2*len(base) {
		t.Fatalf("4x rate produced %d arrivals vs %d at 1x; want at least double", len(scaled), len(base))
	}
	// ScaleRate must not mutate the receiver.
	if spec.Phases[0].PerHour != 3 {
		t.Fatalf("ScaleRate mutated the original spec: rate now %v", spec.Phases[0].PerHour)
	}
}

func TestSpecValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Spec)
		want string
	}{
		{"no phases", func(s *Spec) { s.Phases = nil }, "no phases"},
		{"bad duration", func(s *Spec) { s.Phases[0].Duration = 0 }, "duration"},
		{"negative rate", func(s *Spec) { s.Phases[0].PerHour = -1 }, "bad rate"},
		{"bad sizes", func(s *Spec) { s.Phases[0].SizeMinBytes = 0 }, "size range"},
		{"bad slack", func(s *Spec) { s.Phases[0].SlackMax = s.Phases[0].SlackMin - 1 }, "slack range"},
		{"no weights", func(s *Spec) { s.Phases[0].PriorityWeights = nil }, "priority weights"},
		{"zero weights", func(s *Spec) { s.Phases[0].PriorityWeights = []float64{0, 0} }, "sum to zero"},
		{"negative weight", func(s *Spec) { s.Phases[0].PriorityWeights = []float64{-1, 2} }, "bad priority weight"},
		{"negative fan", func(s *Spec) { s.Phases[0].MaxDests = -1 }, "fan bound"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := tinySpec()
			tc.edit(&spec)
			err := spec.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
	good := tinySpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestCompileNeedsTwoMachines(t *testing.T) {
	spec := tinySpec()
	if _, err := spec.Compile(1); err == nil {
		t.Fatal("compiling against one machine should fail")
	}
}

func TestBuiltinsCompile(t *testing.T) {
	for _, spec := range Builtins() {
		arrivals, err := spec.Compile(10)
		if err != nil {
			t.Fatalf("builtin %s: %v", spec.Name, err)
		}
		if len(arrivals) == 0 {
			t.Fatalf("builtin %s compiled to zero arrivals", spec.Name)
		}
		if specSpan(spec) > 24*time.Hour {
			t.Fatalf("builtin %s spans %v, beyond the generated networks' day", spec.Name, specSpan(spec))
		}
	}
	if _, err := Builtin("no-such-spec"); err == nil {
		t.Fatal("unknown builtin name should fail")
	}
	names := BuiltinNames()
	if len(names) != len(Builtins()) {
		t.Fatalf("BuiltinNames lists %d of %d specs", len(names), len(Builtins()))
	}
}

func TestMaterialize(t *testing.T) {
	base, err := gen.NetworkOnly(gen.Default(), 3)
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()
	arrivals, err := spec.Compile(base.Network.NumMachines())
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrace(spec.Name, base.Network.NumMachines(), &spec, arrivals)
	sc, events, err := tr.Materialize(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Items) != len(arrivals) {
		t.Fatalf("materialized %d items from %d arrivals", len(sc.Items), len(arrivals))
	}
	if len(base.Items) != 0 {
		t.Fatal("materialize mutated the base scenario")
	}
	// Every arrival strictly after the epoch needs a release event.
	want := 0
	for _, a := range arrivals {
		if a.At > 0 {
			want++
		}
	}
	if len(events) != want {
		t.Fatalf("%d release events for %d post-epoch arrivals", len(events), want)
	}
	for i, ev := range events {
		if int(ev.Item) < 0 || int(ev.Item) >= len(sc.Items) {
			t.Fatalf("event %d releases out-of-range item %d", i, ev.Item)
		}
		if ev.At != sc.Items[ev.Item].Sources[0].Available {
			t.Fatalf("event %d at %v but item available at %v", i, ev.At, sc.Items[ev.Item].Sources[0].Available)
		}
	}

	// A trace can demand more machines than the base provides.
	small := *base
	tooBig := NewTrace("big", base.Network.NumMachines()+1, nil, nil)
	if _, _, err := tooBig.Materialize(&small); err == nil {
		t.Fatal("materializing a trace against a too-small network should fail")
	}
}
