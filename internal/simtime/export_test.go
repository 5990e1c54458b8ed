package simtime

import "time"

// Clone returns a deep copy of the set: the starting point of each
// reference result the differential kernel tests compute.
func (s *Set) Clone() Set {
	out := Set{ivs: make([]Interval, len(s.ivs))}
	copy(out.ivs, s.ivs)
	return out
}

// EarliestFitSlow is the pre-index reference implementation of EarliestFit:
// a linear scan from the front of the set. It is the oracle for the
// differential kernel tests and FuzzKernelEquivalence.
func (s *Set) EarliestFitSlow(ready Instant, d time.Duration) (Instant, bool) {
	if d < 0 {
		d = 0
	}
	for _, iv := range s.ivs {
		if iv.End < ready {
			continue
		}
		start := MaxInstant(iv.Start, ready)
		if d == 0 {
			if iv.Contains(start) {
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

// SubtractSlow is the pre-splice reference implementation of Subtract:
// rebuild the whole set into a fresh array, filtering each interval against
// iv. It is the oracle for the differential kernel tests and
// FuzzKernelEquivalence.
func (s *Set) SubtractSlow(iv Interval) {
	if iv.IsEmpty() || len(s.ivs) == 0 {
		return
	}
	out := s.ivs[:0:0]
	for _, ex := range s.ivs {
		if !ex.Overlaps(iv) {
			out = append(out, ex)
			continue
		}
		if left := (Interval{Start: ex.Start, End: iv.Start}); !left.IsEmpty() {
			out = append(out, left)
		}
		if right := (Interval{Start: iv.End, End: ex.End}); !right.IsEmpty() {
			out = append(out, right)
		}
	}
	s.ivs = out
}
