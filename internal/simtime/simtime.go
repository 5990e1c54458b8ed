// Package simtime provides the time model used throughout the data staging
// simulator: instants on a simulated clock that starts at the scheduling
// epoch (time 0), half-open intervals between instants, and sets of disjoint
// intervals with the algebra the link and capacity timelines need.
//
// Instants are stored with time.Duration resolution (nanoseconds), which is
// exact for every quantity the ICDCS 2000 data staging model uses: link
// availability windows are minutes to hours, transfer times are derived from
// sizes in bytes and bandwidths in bits per second, and a whole simulated day
// fits in an int64 with room to spare.
package simtime

import (
	"fmt"
	"math"
	"time"
)

// Instant is a point on the simulated clock, expressed as the offset from the
// scheduling epoch (instant 0). Negative instants are valid and simply lie
// before the epoch; the model never generates them but the arithmetic allows
// them.
type Instant time.Duration

// Sentinel instants. Never is used as the label of an unreachable node in the
// shortest-path computation and as the arrival time of an unsatisfiable
// request; Forever is the open end of reservations that are held for the
// remainder of the simulation (copies at sources and final destinations).
const (
	Never   Instant = math.MaxInt64
	Forever Instant = math.MaxInt64
)

// At converts a duration-since-epoch to an Instant.
func At(d time.Duration) Instant { return Instant(d) }

// Seconds returns the instant as floating-point seconds since the epoch.
func (t Instant) Seconds() float64 { return time.Duration(t).Seconds() }

// Duration returns the instant as a time.Duration offset from the epoch.
func (t Instant) Duration() time.Duration { return time.Duration(t) }

// Add returns the instant shifted by d, saturating at Never so that
// arithmetic on unreachable labels stays unreachable.
func (t Instant) Add(d time.Duration) Instant {
	if t == Never {
		return Never
	}
	s := t + Instant(d)
	if d > 0 && s < t { // overflow
		return Never
	}
	return s
}

// Sub returns the duration t - u.
func (t Instant) Sub(u Instant) time.Duration { return time.Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Instant) Before(u Instant) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Instant) After(u Instant) bool { return t > u }

// String formats the instant as a duration offset (e.g. "1h30m0s").
func (t Instant) String() string {
	if t == Never {
		return "never"
	}
	return time.Duration(t).String()
}

// MinInstant returns the earlier of a and b.
func MinInstant(a, b Instant) Instant {
	if a < b {
		return a
	}
	return b
}

// MaxInstant returns the later of a and b.
func MaxInstant(a, b Instant) Instant {
	if a > b {
		return a
	}
	return b
}

// Interval is a half-open time interval [Start, End). An interval with
// End <= Start is empty. The half-open convention makes abutting windows
// compose without double-counting: [a,b) followed by [b,c) covers [a,c).
type Interval struct {
	Start Instant `json:"start"`
	End   Instant `json:"end"`
}

// Span constructs the interval [start, start+d).
func Span(start Instant, d time.Duration) Interval {
	return Interval{Start: start, End: start.Add(d)}
}

// IsEmpty reports whether the interval contains no instants.
func (iv Interval) IsEmpty() bool { return iv.End <= iv.Start }

// Length returns the duration of the interval (zero if empty).
func (iv Interval) Length() time.Duration {
	if iv.IsEmpty() {
		return 0
	}
	return iv.End.Sub(iv.Start)
}

// Contains reports whether instant t lies inside the interval.
func (iv Interval) Contains(t Instant) bool { return t >= iv.Start && t < iv.End }

// ContainsInterval reports whether other lies entirely inside iv. An empty
// other is contained in anything.
func (iv Interval) ContainsInterval(other Interval) bool {
	if other.IsEmpty() {
		return true
	}
	return other.Start >= iv.Start && other.End <= iv.End
}

// Overlaps reports whether the two intervals share at least one instant.
func (iv Interval) Overlaps(other Interval) bool {
	if iv.IsEmpty() || other.IsEmpty() {
		return false
	}
	return iv.Start < other.End && other.Start < iv.End
}

// Intersect returns the overlap of the two intervals (possibly empty).
func (iv Interval) Intersect(other Interval) Interval {
	out := Interval{
		Start: MaxInstant(iv.Start, other.Start),
		End:   MinInstant(iv.End, other.End),
	}
	if out.IsEmpty() {
		return Interval{}
	}
	return out
}

// String formats the interval in [start, end) notation.
func (iv Interval) String() string {
	return fmt.Sprintf("[%v, %v)", iv.Start, iv.End)
}

// Set is a set of instants represented as sorted, disjoint, non-abutting,
// non-empty half-open intervals. The zero value is an empty set ready to use.
//
// Set is the workhorse behind link-availability math: the free time on a
// virtual link is the link's window minus its committed transfers, and
// finding the earliest feasible slot for a new transfer is an EarliestFit
// query on that set.
type Set struct {
	ivs []Interval
}

// NewSet builds a set from any collection of intervals; they may overlap,
// abut, be empty, or be out of order.
func NewSet(ivs ...Interval) Set {
	var s Set
	for _, iv := range ivs {
		s.Add(iv)
	}
	return s
}

// NewSets returns one set per window — empty windows yield empty sets —
// with every non-empty set's single interval drawn from one shared backing
// array. State construction builds one free-time set per virtual link
// (thousands), so one allocation here replaces one per set. Each set's
// slice is capacity-limited to its own element: a later mutation that has
// to grow it reallocates privately instead of clobbering a neighbor.
func NewSets(windows []Interval) []Set {
	out := make([]Set, len(windows))
	backing := make([]Interval, len(windows))
	n := 0
	for i, w := range windows {
		if w.IsEmpty() {
			continue
		}
		backing[n] = w
		out[i] = Set{ivs: backing[n : n+1 : n+1]}
		n++
	}
	return out
}

// Len returns the number of disjoint intervals in the set.
func (s *Set) Len() int { return len(s.ivs) }

// Total returns the summed length of all intervals in the set.
func (s *Set) Total() time.Duration {
	var sum time.Duration
	for _, iv := range s.ivs {
		sum += iv.Length()
	}
	return sum
}

// Contains reports whether instant t is in the set.
func (s *Set) Contains(t Instant) bool {
	i := s.search(t)
	return i < len(s.ivs) && s.ivs[i].Contains(t)
}

// ContainsInterval reports whether the whole of iv is in the set.
func (s *Set) ContainsInterval(iv Interval) bool {
	if iv.IsEmpty() {
		return true
	}
	i := s.search(iv.Start)
	return i < len(s.ivs) && s.ivs[i].ContainsInterval(iv)
}

// search returns the index of the one interval that could contain t: the
// greatest i with ivs[i].Start <= t. When t precedes every interval it
// returns 0 (len(ivs), also 0, for an empty set), an index whose interval
// does not contain t, so callers still check containment.
func (s *Set) search(t Instant) int {
	lo, hi := 0, len(s.ivs)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.ivs[mid].Start <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return lo - 1
}

// Add unions iv into the set, merging overlapping and abutting intervals.
func (s *Set) Add(iv Interval) {
	if iv.IsEmpty() {
		return
	}
	// Find insertion window: all existing intervals that overlap or abut iv
	// are merged into it.
	out := s.ivs[:0:0]
	inserted := false
	for _, ex := range s.ivs {
		switch {
		case ex.End < iv.Start: // strictly before, not abutting
			out = append(out, ex)
		case iv.End < ex.Start: // strictly after, not abutting
			if !inserted {
				out = append(out, iv)
				inserted = true
			}
			out = append(out, ex)
		default: // overlaps or abuts: absorb into iv
			iv.Start = MinInstant(iv.Start, ex.Start)
			iv.End = MaxInstant(iv.End, ex.End)
		}
	}
	if !inserted {
		out = append(out, iv)
	}
	s.ivs = out
}

// Subtract removes iv from the set.
func (s *Set) Subtract(iv Interval) {
	if iv.IsEmpty() || len(s.ivs) == 0 {
		return
	}
	// The canonical form makes subtraction a splice: the intervals
	// overlapping iv are one contiguous run [i, j), replaced by at most two
	// clipped ends, so the edit happens in place. A committed transfer slot
	// usually lands strictly inside one free interval (the split case),
	// which grows the set by one; append's amortized growth is the only
	// allocation this ever makes.
	i := s.search(iv.Start)
	if s.ivs[i].End <= iv.Start {
		i++
	}
	j := i
	for j < len(s.ivs) && s.ivs[j].Start < iv.End {
		j++
	}
	if i == j {
		return
	}
	var rep [2]Interval
	nrep := 0
	if left := (Interval{Start: s.ivs[i].Start, End: iv.Start}); !left.IsEmpty() {
		rep[nrep] = left
		nrep++
	}
	if right := (Interval{Start: iv.End, End: s.ivs[j-1].End}); !right.IsEmpty() {
		rep[nrep] = right
		nrep++
	}
	if removed := j - i; nrep > removed { // mid-interval split: grow by one
		s.ivs = append(s.ivs, Interval{})
		copy(s.ivs[i+2:], s.ivs[i+1:])
	} else if nrep < removed {
		copy(s.ivs[i+nrep:], s.ivs[j:])
		s.ivs = s.ivs[:len(s.ivs)-removed+nrep]
	}
	for k := 0; k < nrep; k++ {
		s.ivs[i+k] = rep[k]
	}
}

// IntersectSet returns the instants common to both sets. The output is
// preallocated at min(len(a), len(b)) intervals, which covers the typical
// case in one allocation (the true bound is len(a)+len(b)-1; append grows
// on the rare overshoot). Hot paths that only need the earliest common fit
// should use EarliestFitN, which materializes nothing.
func (s *Set) IntersectSet(other *Set) Set {
	var out Set
	if len(s.ivs) == 0 || len(other.ivs) == 0 {
		return out
	}
	n := len(s.ivs)
	if len(other.ivs) < n {
		n = len(other.ivs)
	}
	out.ivs = make([]Interval, 0, n)
	i, j := 0, 0
	for i < len(s.ivs) && j < len(other.ivs) {
		isect := s.ivs[i].Intersect(other.ivs[j])
		if !isect.IsEmpty() {
			out.ivs = append(out.ivs, isect)
		}
		if s.ivs[i].End < other.ivs[j].End {
			i++
		} else {
			j++
		}
	}
	return out
}

// EarliestFit returns the earliest instant t >= ready such that the interval
// [t, t+d) lies entirely within the set. The boolean result is false when no
// such instant exists. A zero or negative d fits at the first in-set instant
// at or after ready (or exactly at ready if ready is in the set).
//
// The query binary-searches to the first interval that can still serve
// ready and scans forward from there, so a query deep into a dense
// timeline costs O(log n + k) for k intervals actually inspected instead
// of an O(n) walk from the front (EarliestFitSlow in export_test.go, the
// reference the differential tests pin this against).
func (s *Set) EarliestFit(ready Instant, d time.Duration) (Instant, bool) {
	t, _, ok := s.earliestFitFrom(s.search(ready), ready, d)
	return t, ok
}

// earliestFitFrom scans for a fit starting at interval index from. Every
// interval before from must end at or before ready (such intervals can
// never produce a fit, so skipping them is exact). It returns the fit
// instant, the index of the interval providing it (len(s.ivs) when none),
// and whether a fit exists.
func (s *Set) earliestFitFrom(from int, ready Instant, d time.Duration) (Instant, int, bool) {
	if d < 0 {
		d = 0
	}
	for i := from; i < len(s.ivs); i++ {
		iv := s.ivs[i]
		if iv.End < ready {
			continue
		}
		start := MaxInstant(iv.Start, ready)
		if d == 0 {
			if iv.Contains(start) {
				return start, i, true
			}
			continue
		}
		if start.Add(d) <= iv.End {
			return start, i, true
		}
	}
	return Never, len(s.ivs), false
}

// EarliestFitHint is EarliestFit accelerated by a caller-held cursor: hint
// is the interval index a previous query on this set returned as next.
// When the hint is still valid for this query — every interval before it
// ends at or before ready, which holds whenever queries arrive with
// non-decreasing ready and the set has not changed — the scan starts there
// directly, skipping even the binary search. An invalid hint (stale, out
// of range, or negative) falls back to the indexed query, so any hint
// value yields correct results. next is the index to pass as the hint of
// the following query; hinted reports whether the fast path was taken.
func (s *Set) EarliestFitHint(hint int, ready Instant, d time.Duration) (t Instant, next int, ok, hinted bool) {
	if hint >= 0 && hint <= len(s.ivs) && (hint == 0 || s.ivs[hint-1].End <= ready) {
		t, next, ok = s.earliestFitFrom(hint, ready, d)
		return t, next, ok, true
	}
	t, next, ok = s.earliestFitFrom(s.search(ready), ready, d)
	return t, next, ok, false
}

// String formats the set as a list of intervals.
func (s *Set) String() string {
	if len(s.ivs) == 0 {
		return "{}"
	}
	out := "{"
	for i, iv := range s.ivs {
		if i > 0 {
			out += ", "
		}
		out += iv.String()
	}
	return out + "}"
}
