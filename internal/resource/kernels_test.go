package resource

import (
	"math/rand"
	"testing"
	"time"

	"datastaging/internal/simtime"
)

func randIv(rng *rand.Rand) simtime.Interval {
	start := simtime.At(time.Duration(rng.Intn(600)) * time.Second)
	return simtime.Interval{Start: start, End: start.Add(time.Duration(rng.Intn(120)+1) * time.Second)}
}

// TestMinAvailableMatchesSlow interleaves mutations (which dirty the
// segment-min index) with query bursts (which rebuild and use it) and
// requires the indexed answer to match the linear reference on every
// query, on profiles from one segment to far past the index cutoff.
func TestMinAvailableMatchesSlow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewCapacity(1 << 40)
	var held []struct {
		amount int64
		iv     simtime.Interval
	}
	for step := 0; step < 400; step++ {
		if rng.Intn(4) > 0 || len(held) == 0 {
			amount := int64(rng.Intn(1000) + 1)
			iv := randIv(rng)
			if rng.Intn(20) == 0 {
				iv.End = simtime.Forever
			}
			if err := c.Reserve(amount, iv); err != nil {
				t.Fatalf("step %d: reserve: %v", step, err)
			}
			held = append(held, struct {
				amount int64
				iv     simtime.Interval
			}{amount, iv})
		} else {
			k := rng.Intn(len(held))
			c.Release(held[k].amount, held[k].iv)
			held = append(held[:k], held[k+1:]...)
		}
		for q := 0; q < 5; q++ {
			iv := randIv(rng)
			switch rng.Intn(8) {
			case 0:
				iv.End = iv.Start // empty
			case 1:
				iv.End = simtime.Forever
			}
			got, want := c.MinAvailable(iv), c.MinAvailableLinear(iv)
			if got != want {
				t.Fatalf("step %d (%d segments): MinAvailable(%v) = %d, want %d",
					step, len(c.segs), iv, got, want)
			}
		}
	}
	if len(c.segs) <= MinIndexCutoff {
		t.Fatalf("profile never crossed the index cutoff (%d segments); the fast path went untested", len(c.segs))
	}
}

func TestMinAvailableSteadyStateZeroAllocs(t *testing.T) {
	c := benchCapacity(200)
	iv := simtime.Interval{Start: simtime.At(100 * time.Second), End: simtime.At(400 * time.Second)}
	c.MinAvailable(iv) // trigger the one post-mutation rebuild
	allocs := testing.AllocsPerRun(100, func() {
		c.MinAvailable(iv)
	})
	if allocs != 0 {
		t.Errorf("MinAvailable allocated %.1f times per query on a clean index, want 0", allocs)
	}
}

func TestMinAvailableIndexRebuildReusesBuffers(t *testing.T) {
	c := benchCapacity(200)
	iv := simtime.Interval{Start: simtime.At(100 * time.Second), End: simtime.At(400 * time.Second)}
	c.MinAvailable(iv)
	// A release/re-reserve cycle keeps the segment count stable, so the
	// rebuild after each mutation must reuse the index's backing arrays.
	rsv := simtime.Interval{Start: simtime.At(10 * time.Second), End: simtime.At(11 * time.Second)}
	if err := c.Reserve(1, rsv); err != nil {
		t.Fatal(err)
	}
	c.MinAvailable(iv)
	allocs := testing.AllocsPerRun(20, func() {
		c.Release(1, rsv)
		if err := c.Reserve(1, rsv); err != nil {
			t.Fatal(err)
		}
		c.MinAvailable(iv)
	})
	if allocs > 0 {
		t.Errorf("rebuild cycle allocated %.1f times per mutation+query, want 0", allocs)
	}
}

// TestLinkEarliestSlotHinted pins the cursor-hint protocol: monotone
// queries ride the hint, Commit and Block invalidate it, and results are
// always identical to the hintless reference.
func TestLinkEarliestSlotHinted(t *testing.T) {
	window := simtime.Interval{Start: 0, End: simtime.At(1000 * time.Second)}
	l := NewLinkTimeline(window)
	for i := 0; i < 20; i++ {
		if err := l.Commit(simtime.At(time.Duration(i)*50*time.Second), 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	var prevReady simtime.Instant
	hintedCount := 0
	for q := 0; q < 30; q++ {
		ready := prevReady.Add(25 * time.Second)
		prevReady = ready
		got, ok, hinted := l.EarliestSlotHinted(ready, 5*time.Second)
		// Set.EarliestFit is itself pinned against the linear reference by
		// the simtime differential tests; here it is the hintless oracle.
		want, wantOK := l.Free().EarliestFit(ready, 5*time.Second)
		if got != want || ok != wantOK {
			t.Fatalf("query %d: got (%v, %v), want (%v, %v)", q, got, ok, want, wantOK)
		}
		if hinted {
			hintedCount++
		}
	}
	if hintedCount < 25 {
		t.Errorf("monotone query stream hit the hint only %d/30 times", hintedCount)
	}
	// Commit invalidates: the next query must fall back (and still be right).
	start, ok := l.EarliestSlot(0, time.Second)
	if !ok {
		t.Fatal("no slot after partial commits")
	}
	if err := l.Commit(start, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, _, hinted := l.EarliestSlotHinted(start, time.Second); hinted {
		t.Error("hint survived a Commit")
	}
	l.Block(simtime.Interval{Start: simtime.At(990 * time.Second), End: simtime.At(995 * time.Second)})
	if _, _, hinted := l.EarliestSlotHinted(0, time.Second); hinted {
		t.Error("hint survived a Block")
	}
}

func TestLinkEarliestSlotZeroAllocs(t *testing.T) {
	window := simtime.Interval{Start: 0, End: simtime.At(1000 * time.Second)}
	l := NewLinkTimeline(window)
	for i := 0; i < 50; i++ {
		if err := l.Commit(simtime.At(time.Duration(i)*20*time.Second), 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := l.EarliestSlot(simtime.At(500*time.Second), time.Second); !ok {
			t.Fatal("no slot")
		}
	})
	if allocs != 0 {
		t.Errorf("EarliestSlot allocated %.1f times per query, want 0", allocs)
	}
}

// FuzzKernelEquivalence drives an arbitrary reserve/release/query script
// against one Capacity and requires the indexed MinAvailable to agree with
// the linear reference after every operation.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add([]byte{10, 0, 50, 3, 200, 8, 90, 1})
	f.Add([]byte{255, 255, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCapacity(1 << 30)
		type rsv struct {
			amount int64
			iv     simtime.Interval
		}
		var held []rsv
		for i := 0; i+2 < len(data); i += 3 {
			start := simtime.At(time.Duration(data[i]) * time.Second)
			iv := simtime.Interval{Start: start, End: start.Add(time.Duration(data[i+1]%60+1) * time.Second)}
			amount := int64(data[i+2])
			switch data[i] % 3 {
			case 0, 1:
				if err := c.Reserve(amount, iv); err == nil {
					held = append(held, rsv{amount, iv})
				}
			case 2:
				if len(held) > 0 {
					k := int(data[i+1]) % len(held)
					c.Release(held[k].amount, held[k].iv)
					held = append(held[:k], held[k+1:]...)
				}
			}
			q := simtime.Interval{Start: start.Add(-30 * time.Second), End: start.Add(time.Duration(data[i+2]%90) * time.Second)}
			if got, want := c.MinAvailable(q), c.MinAvailableLinear(q); got != want {
				t.Fatalf("op %d (%d segments): MinAvailable(%v) = %d, want %d", i/3, len(c.segs), q, got, want)
			}
		}
	})
}
