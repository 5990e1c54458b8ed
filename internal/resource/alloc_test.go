package resource

import (
	"testing"
	"time"

	"datastaging/internal/simtime"
)

// TestSlotQueryAllocs gates the admission fast path's slot queries at zero
// allocations: a regression here used to drift silently in BENCH_core.json
// until a trajectory run noticed; now it fails the suite.
func TestSlotQueryAllocs(t *testing.T) {
	lt := NewLinkTimeline(simtime.Interval{Start: 0, End: simtime.Forever})
	at := simtime.At(0)
	for i := 0; i < 64; i++ {
		if err := lt.Commit(at, time.Second); err != nil {
			t.Fatal(err)
		}
		at = at.Add(2 * time.Second)
	}
	if a := testing.AllocsPerRun(100, func() {
		if _, ok := lt.EarliestSlot(simtime.At(time.Second), time.Second); !ok {
			t.Fatal("no slot on a mostly-free timeline")
		}
	}); a != 0 {
		t.Errorf("EarliestSlot allocates %.1f per query, want 0", a)
	}
}

// TestCapacityQueryAllocs gates the feasibility probes: once the segment-min
// caches are warm, CanReserve and MinAvailable are allocation-free no matter
// how fragmented the profile is.
func TestCapacityQueryAllocs(t *testing.T) {
	c := NewCapacity(1 << 20)
	at := simtime.At(0)
	for i := 0; i < 64; i++ { // well past minIndexCutoff: exercises the index path
		if err := c.Reserve(64, simtime.Interval{Start: at, End: simtime.Forever}); err != nil {
			t.Fatal(err)
		}
		at = at.Add(time.Second)
	}
	iv := simtime.Interval{Start: simtime.At(5 * time.Second), End: simtime.Forever}
	c.MinAvailable(iv) // warm the sparse table and the MinEver cache
	if a := testing.AllocsPerRun(100, func() {
		if !c.CanReserve(64, iv) {
			t.Fatal("reservation should fit")
		}
		c.MinAvailable(iv)
	}); a != 0 {
		t.Errorf("capacity queries allocate %.1f per probe, want 0", a)
	}
}
