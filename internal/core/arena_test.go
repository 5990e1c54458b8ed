package core

import "testing"

func TestArenaAllocDisjoint(t *testing.T) {
	var a arena[int]
	s1 := a.Alloc(10)
	s2 := a.Alloc(10)
	for i := range s1 {
		s1[i] = 1
	}
	for i := range s2 {
		s2[i] = 2
	}
	for i, v := range s1 {
		if v != 1 {
			t.Fatalf("s1[%d] = %d, carvings overlap", i, v)
		}
	}
	if len(s1) != 10 || cap(s1) != 10 {
		t.Fatalf("carving len/cap = %d/%d, want 10/10", len(s1), cap(s1))
	}
	// Appending to a full carving must not scribble on the next one.
	_ = append(s1, 99)
	if s2[0] != 2 {
		t.Fatal("append to carving aliased the next carving")
	}
}

func TestArenaAllocLargerThanSlab(t *testing.T) {
	var a arena[byte]
	big := a.Alloc(3 * minSlab)
	if len(big) != 3*minSlab {
		t.Fatalf("len = %d", len(big))
	}
	if a.Slabs() != 1 {
		t.Fatalf("slabs = %d, want 1", a.Slabs())
	}
}

func TestArenaResetRecyclesSlabs(t *testing.T) {
	var a arena[int64]
	const n, rounds = 64, 200
	for i := 0; i < minSlab/n; i++ {
		a.Alloc(n)
	}
	slabs := a.Slabs()
	allocs := testing.AllocsPerRun(rounds, func() {
		a.Reset()
		for i := 0; i < minSlab/n; i++ {
			a.Alloc(n)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Alloc allocated %.1f times per epoch, want 0", allocs)
	}
	if a.Slabs() != slabs {
		t.Errorf("slabs grew from %d to %d across Resets", slabs, a.Slabs())
	}
}

func TestArenaZeroValueReady(t *testing.T) {
	var a arena[struct{ x, y int }]
	s := a.Alloc(5)
	if len(s) != 5 {
		t.Fatalf("len = %d", len(s))
	}
	a.Reset()
	if s2 := a.Alloc(5); len(s2) != 5 {
		t.Fatalf("post-reset len = %d", len(s2))
	}
}

func TestArenaSlabGrowthDoubles(t *testing.T) {
	var a arena[byte]
	total := 0
	for i := 0; i < 20; i++ {
		a.Alloc(minSlab)
		total += minSlab
	}
	// Doubling slabs: 20 slab-sized carvings must fit in far fewer slabs.
	if a.Slabs() > 6 {
		t.Errorf("%d bytes used %d slabs, doubling broken", total, a.Slabs())
	}
}
