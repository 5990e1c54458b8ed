package simtime

import "time"

// EarliestFitN returns the earliest instant t >= ready such that [t, t+d)
// lies entirely within every one of the given sets: exactly the answer
// sets[0].IntersectSet(sets[1])...EarliestFit(ready, d) would give, but
// computed by walking the sorted interval lists with one cursor per set,
// without materializing any intersection set and without allocating.
//
// This is the serialized-transfer slot query of state.EarliestTransferSlot
// (link free time ∧ send-port free time ∧ receive-port free time), which
// runs once per edge relaxation in the resource-aware Dijkstra; see
// DESIGN.md "Interval kernels".
//
// A zero or negative d asks for the first instant common to all sets at or
// after ready. With no sets the query is unconstrained and reports ready
// itself. The cost is O(Σ log nᵢ + k) where k is the number of intervals
// the cursors pass over — never more than the intervals the materialized
// intersection would have built.
func EarliestFitN(ready Instant, d time.Duration, sets ...*Set) (Instant, bool) {
	switch len(sets) {
	case 0:
		return ready, true
	case 1:
		return sets[0].EarliestFit(ready, d)
	}
	if d < 0 {
		d = 0
	}
	// Cursors live in a fixed-size array for the 2–4 set queries the
	// scheduler issues, so the call does not allocate.
	var curArr [4]int
	var cur []int
	if len(sets) <= len(curArr) {
		cur = curArr[:len(sets)]
	} else {
		cur = make([]int, len(sets))
	}
	// Seed each cursor with a binary search so a query deep into dense
	// timelines skips the dead prefix in O(log n) per set.
	for k, s := range sets {
		cur[k] = s.search(ready)
	}
	t := ready
	for {
		changed := false
		for k, s := range sets {
			start, ok := s.fitFrom(&cur[k], t, d)
			if !ok {
				return Never, false
			}
			if start != t {
				t = start
				changed = true
			}
		}
		if !changed {
			return t, true
		}
	}
}

// fitFrom returns the earliest instant start >= t such that [start,
// start+d) lies within a single interval of s at index *c or later,
// advancing the cursor past intervals that cannot serve this query.
// Because a skipped interval cannot serve any later (larger-t) query
// either, the cursor is monotone across the lifetime of one EarliestFitN
// call. d must already be clamped non-negative.
func (s *Set) fitFrom(c *int, t Instant, d time.Duration) (Instant, bool) {
	for ; *c < len(s.ivs); *c++ {
		iv := s.ivs[*c]
		start := MaxInstant(iv.Start, t)
		if d == 0 {
			if start < iv.End {
				return start, true
			}
			continue
		}
		if start.Add(d) <= iv.End {
			return start, true
		}
	}
	return Never, false
}
