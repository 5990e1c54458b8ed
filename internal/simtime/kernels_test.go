package simtime

import (
	"math/rand"
	"testing"
	"time"
)

// randomSet builds a canonical set of roughly n intervals on a millisecond
// grid tight enough that independently drawn sets overlap often.
func randomSet(rng *rand.Rand, n int) Set {
	var s Set
	for i := 0; i < n; i++ {
		start := At(time.Duration(rng.Intn(400)) * time.Millisecond)
		length := time.Duration(rng.Intn(30)+1) * time.Millisecond
		s.Add(Interval{Start: start, End: start.Add(length)})
	}
	return s
}

// refFitN is the set-materializing reference for EarliestFitN: intersect
// everything, then run the linear-reference earliest-fit on the result.
func refFitN(ready Instant, d time.Duration, sets ...*Set) (Instant, bool) {
	if len(sets) == 0 {
		return ready, true
	}
	acc := sets[0].Clone()
	for _, s := range sets[1:] {
		acc = acc.IntersectSet(s)
	}
	return acc.EarliestFitSlow(ready, d)
}

func TestEarliestFitMatchesSlow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		s := randomSet(rng, rng.Intn(40))
		for q := 0; q < 50; q++ {
			ready := At(time.Duration(rng.Intn(500)-20) * time.Millisecond)
			d := time.Duration(rng.Intn(60)-5) * time.Millisecond
			got, gotOK := s.EarliestFit(ready, d)
			want, wantOK := s.EarliestFitSlow(ready, d)
			if got != want || gotOK != wantOK {
				t.Fatalf("EarliestFit(%v, %v) on %v: got (%v, %v), want (%v, %v)",
					ready, d, s.String(), got, gotOK, want, wantOK)
			}
		}
	}
}

func TestEarliestFitHintAnyHintIsCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		s := randomSet(rng, rng.Intn(30))
		for q := 0; q < 50; q++ {
			ready := At(time.Duration(rng.Intn(500)) * time.Millisecond)
			d := time.Duration(rng.Intn(40)) * time.Millisecond
			hint := rng.Intn(s.Len()+10) - 5 // including invalid values
			got, next, gotOK, _ := s.EarliestFitHint(hint, ready, d)
			want, wantOK := s.EarliestFitSlow(ready, d)
			if got != want || gotOK != wantOK {
				t.Fatalf("EarliestFitHint(%d, %v, %v) on %v: got (%v, %v), want (%v, %v)",
					hint, ready, d, s.String(), got, gotOK, want, wantOK)
			}
			if next < 0 || next > s.Len() {
				t.Fatalf("EarliestFitHint returned out-of-range next %d (len %d)", next, s.Len())
			}
			// The returned cursor must itself be a valid hint for any
			// later query with ready' >= the fit (monotone streams).
			if gotOK {
				got2, _, ok2, hinted := s.EarliestFitHint(next, got, d)
				if !hinted || !ok2 || got2 != got {
					t.Fatalf("returned cursor %d not a valid hint: (%v, %v, hinted=%v)", next, got2, ok2, hinted)
				}
			}
		}
	}
}

func TestSubtractMatchesSlow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		s := randomSet(rng, rng.Intn(40))
		for q := 0; q < 20; q++ {
			start := At(time.Duration(rng.Intn(500)-20) * time.Millisecond)
			length := time.Duration(rng.Intn(80)-10) * time.Millisecond
			iv := Interval{Start: start, End: start.Add(length)}
			want := s.Clone()
			want.SubtractSlow(iv)
			s.Subtract(iv)
			if s.String() != want.String() {
				t.Fatalf("Subtract(%v): got %v, want %v", iv, s.String(), want.String())
			}
		}
	}
}

// TestSubtractInPlaceAllocs pins that the splice never allocates except on
// a mid-interval split that outgrows the backing array: removals and clips
// are free, and a split with spare capacity is too.
func TestSubtractInPlaceAllocs(t *testing.T) {
	tmpl := denseBenchSet(64, 0)
	work := denseBenchSet(64, 0)
	work.ivs = append(work.ivs, Interval{}) // spare capacity for the split
	allocs := testing.AllocsPerRun(10, func() {
		work.ivs = work.ivs[:64]
		copy(work.ivs, tmpl.ivs)
		// Remove one whole interval, clip one, split one.
		work.Subtract(Interval{Start: At(4 * time.Second), End: At(5 * time.Second)})
		work.Subtract(Interval{Start: At(8 * time.Second), End: At(8500 * time.Millisecond)})
		work.Subtract(Interval{Start: At(12200 * time.Millisecond), End: At(12400 * time.Millisecond)})
	})
	if allocs != 0 {
		t.Errorf("Subtract allocated %.1f times per sweep, want 0", allocs)
	}
}

// TestNewSetsMatchesNewSet pins the batch constructor against the one-at-a-
// time path, including the aliasing contract: growing one set must not
// disturb its neighbors in the shared backing array.
func TestNewSetsMatchesNewSet(t *testing.T) {
	windows := []Interval{
		{Start: At(time.Second), End: At(3 * time.Second)},
		{Start: At(5 * time.Second), End: At(5 * time.Second)}, // empty
		{Start: At(4 * time.Second), End: At(9 * time.Second)},
		{Start: At(2 * time.Second), End: At(2 * time.Second)}, // empty
		{Start: 0, End: Forever},
	}
	sets := NewSets(windows)
	if len(sets) != len(windows) {
		t.Fatalf("NewSets returned %d sets for %d windows", len(sets), len(windows))
	}
	for i, w := range windows {
		if want := NewSet(w); sets[i].String() != want.String() {
			t.Errorf("set %d: got %v, want %v", i, sets[i].String(), want.String())
		}
	}
	// Split set 2 (forcing it to grow past its 1-cap sub-slice) and check
	// the neighbors are untouched.
	sets[2].Subtract(Interval{Start: At(6 * time.Second), End: At(7 * time.Second)})
	split := NewSet(
		Interval{Start: At(4 * time.Second), End: At(6 * time.Second)},
		Interval{Start: At(7 * time.Second), End: At(9 * time.Second)},
	)
	if got := sets[2].String(); got != split.String() {
		t.Errorf("split set: got %v, want %v", got, split.String())
	}
	for _, i := range []int{0, 4} {
		if want := NewSet(windows[i]); sets[i].String() != want.String() {
			t.Errorf("neighbor %d disturbed by split: got %v, want %v", i, sets[i].String(), want.String())
		}
	}
}

func TestEarliestFitNMatchesIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		nSets := 2 + rng.Intn(2)
		sets := make([]*Set, nSets)
		for i := range sets {
			s := randomSet(rng, 5+rng.Intn(30))
			sets[i] = &s
		}
		for q := 0; q < 30; q++ {
			ready := At(time.Duration(rng.Intn(500)-20) * time.Millisecond)
			d := time.Duration(rng.Intn(40)-5) * time.Millisecond
			got, gotOK := EarliestFitN(ready, d, sets...)
			want, wantOK := refFitN(ready, d, sets...)
			if got != want || gotOK != wantOK {
				t.Fatalf("EarliestFitN(%v, %v) over %d sets: got (%v, %v), want (%v, %v)",
					ready, d, nSets, got, gotOK, want, wantOK)
			}
		}
	}
}

func TestEarliestFitNEdgeCases(t *testing.T) {
	a := NewSet(Interval{Start: 0, End: At(10 * time.Second)})
	b := NewSet(Interval{Start: At(2 * time.Second), End: At(6 * time.Second)})
	var empty Set

	if got, ok := EarliestFitN(At(time.Second), time.Second); !ok || got != At(time.Second) {
		t.Errorf("no sets: got (%v, %v), want (1s, true)", got, ok)
	}
	if got, ok := EarliestFitN(At(time.Second), time.Second, &a); !ok || got != At(time.Second) {
		t.Errorf("one set: got (%v, %v), want (1s, true)", got, ok)
	}
	if got, ok := EarliestFitN(0, time.Second, &a, &b); !ok || got != At(2*time.Second) {
		t.Errorf("two sets: got (%v, %v), want (2s, true)", got, ok)
	}
	if _, ok := EarliestFitN(0, 5*time.Second, &a, &b); ok {
		t.Error("5s transfer cannot fit a 4s overlap")
	}
	if _, ok := EarliestFitN(0, time.Second, &a, &b, &empty); ok {
		t.Error("an empty set admits nothing")
	}
	if got, ok := EarliestFitN(0, -time.Second, &a, &b); !ok || got != At(2*time.Second) {
		t.Errorf("negative d clamps to zero: got (%v, %v), want (2s, true)", got, ok)
	}
	// More than the fixed cursor array (5 sets) still works.
	if got, ok := EarliestFitN(0, time.Second, &a, &a, &a, &a, &b); !ok || got != At(2*time.Second) {
		t.Errorf("five sets: got (%v, %v), want (2s, true)", got, ok)
	}
}

func TestEarliestFitNZeroAllocs(t *testing.T) {
	link := denseBenchSet(256, 0)
	send := denseBenchSet(256, 250*time.Millisecond)
	recv := denseBenchSet(256, 500*time.Millisecond)
	allocs := testing.AllocsPerRun(100, func() {
		EarliestFitN(At(90*time.Second), 100*time.Millisecond, &link, &send, &recv)
	})
	if allocs != 0 {
		t.Errorf("EarliestFitN allocated %.1f times per call, want 0", allocs)
	}
}

func TestIntersectSetPreallocates(t *testing.T) {
	a := denseBenchSet(100, 0)
	b := denseBenchSet(100, 500*time.Millisecond)
	var out Set
	allocs := testing.AllocsPerRun(100, func() {
		out = a.IntersectSet(&b)
	})
	if len(out.ivs) == 0 {
		t.Fatal("intersection unexpectedly empty")
	}
	if allocs > 1 {
		t.Errorf("IntersectSet allocated %.1f times per call, want at most 1 (the preallocated output)", allocs)
	}
	a2, b2 := Set{}, denseBenchSet(3, 0)
	if isect := a2.IntersectSet(&b2); len(isect.ivs) != 0 {
		t.Error("empty ∩ s must be empty")
	}
}

// FuzzKernelEquivalence feeds arbitrary interval sets and queries to every
// fast kernel and requires bit-identical answers from the reference
// implementations: EarliestFit vs the linear scan, EarliestFitHint under
// arbitrary (possibly garbage) hints, and EarliestFitN vs materialized
// intersection.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add([]byte{1, 4, 9, 2, 30, 6}, int64(5), int64(3), 0)
	f.Add([]byte{0, 255, 10, 10, 20, 1, 7, 90, 200, 20}, int64(0), int64(0), 3)
	f.Add([]byte{}, int64(100), int64(-5), -2)
	f.Fuzz(func(t *testing.T, data []byte, readyMS, durMS int64, hint int) {
		// Deal the bytes round-robin into three sets, two bytes per
		// interval: start and length on a millisecond grid.
		var sets [3]Set
		for i := 0; i+1 < len(data); i += 2 {
			start := At(time.Duration(data[i]) * 2 * time.Millisecond)
			length := time.Duration(data[i+1]%64) * time.Millisecond
			sets[(i/2)%3].Add(Interval{Start: start, End: start.Add(length)})
		}
		ready := At(time.Duration(readyMS%700) * time.Millisecond)
		d := time.Duration(durMS%100) * time.Millisecond

		for i := range sets {
			got, gotOK := sets[i].EarliestFit(ready, d)
			want, wantOK := sets[i].EarliestFitSlow(ready, d)
			if got != want || gotOK != wantOK {
				t.Fatalf("EarliestFit(%v, %v) on %v: got (%v, %v), want (%v, %v)",
					ready, d, sets[i].String(), got, gotOK, want, wantOK)
			}
			hGot, next, hOK, _ := sets[i].EarliestFitHint(hint, ready, d)
			if hGot != want || hOK != wantOK {
				t.Fatalf("EarliestFitHint(%d, %v, %v) on %v: got (%v, %v), want (%v, %v)",
					hint, ready, d, sets[i].String(), hGot, hOK, want, wantOK)
			}
			if next < 0 || next > sets[i].Len() {
				t.Fatalf("EarliestFitHint next %d out of range (len %d)", next, sets[i].Len())
			}
		}
		for n := 2; n <= 3; n++ {
			ptrs := make([]*Set, n)
			for i := range ptrs {
				ptrs[i] = &sets[i]
			}
			got, gotOK := EarliestFitN(ready, d, ptrs...)
			want, wantOK := refFitN(ready, d, ptrs...)
			if got != want || gotOK != wantOK {
				t.Fatalf("EarliestFitN(%v, %v) over %d sets: got (%v, %v), want (%v, %v)",
					ready, d, n, got, gotOK, want, wantOK)
			}
		}
		cut := Interval{Start: ready, End: ready.Add(d)}
		for i := range sets {
			want := sets[i].Clone()
			want.SubtractSlow(cut)
			got := sets[i].Clone()
			got.Subtract(cut)
			if got.String() != want.String() {
				t.Fatalf("Subtract(%v) on %v: got %v, want %v",
					cut, sets[i].String(), got.String(), want.String())
			}
		}
	})
}
