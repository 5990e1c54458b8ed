package workload

import (
	"fmt"
	"sort"
	"time"
)

// Builtin returns one of the named built-in specs. Every built-in is sized
// for the paper's §5.3 network (10 Kbit/s–1.5 Mbit/s links over a 24 h
// day). The traffic shapes carry item sizes large enough that an
// offered-load multiplier of a few times unity saturates the network, which
// is what the saturation analyzer sweeps; soak instead carries thousands of
// small items, so the committed schedule grows all day.
func Builtin(name string) (Spec, error) {
	for _, s := range Builtins() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown builtin spec %q (have %v)", name, BuiltinNames())
}

// BuiltinNames lists the built-in spec names, sorted.
func BuiltinNames() []string {
	specs := Builtins()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}

// Builtins returns the built-in multi-phase specs. All are deterministic
// (fixed seeds) and span at most the 24 h day the generated networks'
// link windows cover.
func Builtins() []Spec {
	uniform := []float64{1, 1, 1}
	bulk := []float64{1, 0, 0}        // low priority only
	interactive := []float64{0, 3, 7} // medium/high skew
	business := []float64{0.2, 0.4, 0.4}

	return []Spec{
		{
			// steady: the stationary baseline — one flat window, the
			// temporal shape the §5.3 generator already models.
			Name: "steady",
			Seed: 11,
			Phases: []Phase{
				{Name: "flat", Duration: 24 * time.Hour, PerHour: 3,
					PriorityWeights: uniform,
					SizeMinBytes:    16 << 20, SizeMaxBytes: 192 << 20,
					SlackMin: 45 * time.Minute, SlackMax: 3 * time.Hour},
			},
		},
		{
			// burst: a calm background with a one-hour spike an order of
			// magnitude above it — the flash-crowd shape.
			Name: "burst",
			Seed: 12,
			Phases: []Phase{
				{Name: "calm", Duration: 4 * time.Hour, PerHour: 2,
					PriorityWeights: uniform,
					SizeMinBytes:    16 << 20, SizeMaxBytes: 192 << 20,
					SlackMin: 45 * time.Minute, SlackMax: 3 * time.Hour},
				{Name: "spike", Duration: time.Hour, PerHour: 40,
					PriorityWeights: interactive,
					SizeMinBytes:    16 << 20, SizeMaxBytes: 128 << 20,
					SlackMin: 30 * time.Minute, SlackMax: 90 * time.Minute},
				{Name: "cooldown", Duration: 19 * time.Hour, PerHour: 2,
					PriorityWeights: uniform,
					SizeMinBytes:    16 << 20, SizeMaxBytes: 192 << 20,
					SlackMin: 45 * time.Minute, SlackMax: 3 * time.Hour},
			},
		},
		{
			// diurnal: a stepped day/night cycle — quiet night, morning
			// ramp, busy afternoon, evening taper.
			Name: "diurnal",
			Seed: 13,
			Phases: []Phase{
				{Name: "night", Duration: 6 * time.Hour, PerHour: 1,
					PriorityWeights: uniform,
					SizeMinBytes:    32 << 20, SizeMaxBytes: 256 << 20,
					SlackMin: time.Hour, SlackMax: 4 * time.Hour},
				{Name: "morning", Duration: 4 * time.Hour, PerHour: 6,
					PriorityWeights: business,
					SizeMinBytes:    16 << 20, SizeMaxBytes: 128 << 20,
					SlackMin: time.Hour, SlackMax: 4 * time.Hour},
				{Name: "afternoon", Duration: 6 * time.Hour, PerHour: 10,
					PriorityWeights: business,
					SizeMinBytes:    16 << 20, SizeMaxBytes: 128 << 20,
					SlackMin: time.Hour, SlackMax: 4 * time.Hour},
				{Name: "evening", Duration: 8 * time.Hour, PerHour: 3,
					PriorityWeights: uniform,
					SizeMinBytes:    16 << 20, SizeMaxBytes: 192 << 20,
					SlackMin: time.Hour, SlackMax: 3 * time.Hour},
			},
		},
		{
			// cohort: distinct traffic populations per window — overnight
			// bulk staging (big, patient, low priority), business-hours
			// interactive requests (small, tight, high priority), then a
			// mixed tail. Multi-source/multi-destination fan is on.
			Name: "cohort",
			Seed: 14,
			Phases: []Phase{
				{Name: "bulk", Duration: 8 * time.Hour, PerHour: 4,
					PriorityWeights: bulk,
					SizeMinBytes:    64 << 20, SizeMaxBytes: 384 << 20,
					SlackMin: 2 * time.Hour, SlackMax: 6 * time.Hour,
					MaxSources: 2, MaxDests: 3},
				{Name: "interactive", Duration: 8 * time.Hour, PerHour: 6,
					PriorityWeights: interactive,
					SizeMinBytes:    4 << 20, SizeMaxBytes: 64 << 20,
					SlackMin: 30 * time.Minute, SlackMax: 2 * time.Hour},
				{Name: "mixed", Duration: 8 * time.Hour, PerHour: 2,
					PriorityWeights: uniform,
					SizeMinBytes:    16 << 20, SizeMaxBytes: 192 << 20,
					SlackMin: 45 * time.Minute, SlackMax: 3 * time.Hour,
					MaxDests: 2},
			},
		},
		{
			// soak: a long stationary stream of small items, most of which
			// are admitted, so the committed history grows by thousands of
			// transfers over the day. On the virtual clock each arrival is
			// its own admission epoch, and the soak smoke gates how that
			// epoch's cost moves as the history grows.
			Name: "soak",
			Seed: 15,
			Phases: []Phase{
				{Name: "flat", Duration: 24 * time.Hour, PerHour: 260,
					PriorityWeights: uniform,
					SizeMinBytes:    64 << 10, SizeMaxBytes: 1 << 20,
					SlackMin: time.Hour, SlackMax: 4 * time.Hour},
			},
		},
	}
}
