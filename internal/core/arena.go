package core

// arena is a slab allocator for []T carvings, for the planner's hot paths.
// The admission path allocates many short, same-shaped slices (per-machine
// label arrays, plan buffers). Allocating each one separately costs a malloc
// and a GC scan apiece; an arena carves them out of large recycled slabs
// instead, so steady state performs zero allocations and the garbage
// collector sees a handful of long-lived backing arrays rather than
// thousands of small objects.
//
// Alloc returns slices whose contents are unspecified — callers
// reinitialize, exactly as with the scheduler's growSlice idiom. Reset
// recycles every slab for reuse; it must only be called when no carving from
// the arena is still live (the typical pattern is one Reset per epoch for
// per-epoch scratch, or never for grow-only pools whose carvings live as
// long as the arena).
//
// An arena is owned by one goroutine at a time; it performs no locking.
// The zero value is ready to use.
type arena[T any] struct {
	slabs [][]T
	// cur indexes the slab being carved; off is the carve offset within it.
	cur int
	off int
	// slabSize is the minimum size of newly grown slabs; it doubles as the
	// arena grows so long-lived arenas converge to O(log n) slabs.
	slabSize int
}

// minSlab is the initial slab size in elements. Deliberately small: a
// planner over a toy world (tests, per-iteration benchmark engines) should
// not pay for a four-digit slab up front. Doubling converges long-lived
// arenas to big slabs within a handful of grows anyway.
const minSlab = 64

// Alloc carves a slice of n elements. Contents are unspecified (a recycled
// slab retains old values). The carving is capacity-clamped so appending to
// it cannot alias the next carving.
func (a *arena[T]) Alloc(n int) []T {
	if n < 0 {
		panic("core: negative arena Alloc")
	}
	for a.cur < len(a.slabs) {
		s := a.slabs[a.cur]
		if a.off+n <= len(s) {
			out := s[a.off : a.off+n : a.off+n]
			a.off += n
			return out
		}
		a.cur++
		a.off = 0
	}
	if a.slabSize < minSlab {
		a.slabSize = minSlab
	}
	for a.slabSize < n {
		a.slabSize *= 2
	}
	s := make([]T, a.slabSize)
	a.slabSize *= 2
	a.slabs = append(a.slabs, s)
	a.off = n
	return s[0:n:n]
}

// Reset makes every slab available for carving again. Carvings handed out
// before the Reset alias the recycled memory; the caller asserts none of
// them is still live.
func (a *arena[T]) Reset() {
	a.cur = 0
	a.off = 0
}

// Slabs returns how many backing slabs the arena holds (an observability
// aid: steady state means this stops growing).
func (a *arena[T]) Slabs() int { return len(a.slabs) }
