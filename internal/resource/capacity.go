// Package resource provides the two consumable-resource timelines of the
// data staging model: per-machine storage capacity (a piecewise-constant
// profile of available bytes over simulated time) and per-virtual-link
// transmission timelines (a serial resource available inside one window).
//
// Both are pure bookkeeping structures: the scheduling heuristics query them
// for feasibility ("can machine r hold |d| bytes from arrival until garbage
// collection?", "when is the earliest slot on this link?") and commit
// reservations as communication steps are chosen.
package resource

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"datastaging/internal/simtime"
)

// ErrInsufficient is returned by Capacity.Reserve when the requested amount
// is not available over the whole requested interval.
var ErrInsufficient = errors.New("resource: insufficient capacity over interval")

// Capacity tracks the available storage of one machine as a piecewise-
// constant function of time, Cap[i](t) in the paper's notation. A
// reservation of b bytes over [start, end) decrements the available amount
// on that interval; the end instant is how the model expresses garbage
// collection (intermediate copies are reserved until γ after the item's
// latest deadline, copies at sources and destinations until
// simtime.Forever).
type Capacity struct {
	// segs are sorted by start; segs[k] is in effect on
	// [segs[k].start, segs[k+1].start), and the last segment extends to
	// the end of time. There is always at least one segment.
	segs []capSegment

	// idx is the sparse-table range-minimum index over the segments'
	// avail values, valid only while dirty is false. Mutations (Reserve,
	// Release) mark it dirty; the first MinAvailable on a large profile
	// afterwards rebuilds it under mu, so the rebuild cost is amortized
	// over the many feasibility queries between commits. Queries may run
	// concurrently with each other, but never concurrently with a
	// mutation — the same contract the rest of the state bookkeeping
	// already has.
	idx   minTable
	dirty atomic.Bool
	mu    sync.Mutex

	// minEver caches the minimum availability over the entire timeline:
	// the fast accept for CanReserve, where any amount at or below it
	// fits on every interval without a range query. Rebuilt lazily (one
	// O(n) scan after a mutation, amortized over the many feasibility
	// probes between commits) under the same mutations-never-race-queries
	// contract as idx: a reader touches minEver only after observing
	// minEverDirty == false, which orders it after the scan that cleared
	// the flag.
	minEver      int64
	minEverDirty atomic.Bool

	// dirtyFrom is the lowest segment index a mutation has touched since
	// the last index rebuild (len(segs) when the index is clean). Segment
	// indices below it are byte-identical to what the last rebuild saw —
	// inserts, removals, and avail changes all happen at or after the
	// mark — so the rebuild only recomputes table entries whose window
	// reaches into the dirty suffix. Under the scheduler's frontier-
	// biased mutation pattern (reservations start near the planning
	// floor, i.e. near the end of the timeline) this turns the O(n log n)
	// full rebuild into a near-O(log n) touch-up. Written only by
	// mutators, read only under mu; covered by the mutations-never-race-
	// queries contract above.
	dirtyFrom int
}

type capSegment struct {
	start simtime.Instant
	avail int64
}

// minIndexCutoff is the profile size below which MinAvailable stays a
// plain linear walk: for a handful of segments the scan beats the index
// lookup and nothing is ever rebuilt.
const minIndexCutoff = 32

// NewCapacity returns a profile with total bytes available at all times.
func NewCapacity(total int64) *Capacity {
	c := &Capacity{segs: []capSegment{{start: simtime.Instant(math.MinInt64), avail: total}}}
	c.dirty.Store(true)
	c.minEverDirty.Store(true)
	return c
}

// MinAvailable returns the minimum available bytes over the interval iv.
// An empty interval yields the availability at iv.Start.
//
// On profiles larger than minIndexCutoff the query is served from the
// segment-min index in O(log n): two binary searches for the boundary
// segments and one constant-time sparse-table lookup. At or below the
// cutoff minAvailableLinear answers, which is also the reference the
// differential tests pin the index against.
func (c *Capacity) MinAvailable(iv simtime.Interval) int64 {
	if iv.End <= iv.Start {
		return c.segs[c.segIndex(iv.Start)].avail
	}
	if len(c.segs) <= minIndexCutoff {
		return c.minAvailableLinear(iv)
	}
	c.ensureIndex()
	i := c.segIndex(iv.Start)
	// The last segment in effect before iv.End: greatest start <= End-1,
	// i.e. start < End (End > Start > MinInt64, so End-1 cannot wrap).
	j := c.segIndex(iv.End - 1)
	return c.idx.min(i, j)
}

// minAvailableLinear is a linear walk over every segment the interval
// touches: the live MinAvailable path on profiles of at most minIndexCutoff
// segments, and on larger ones the oracle the differential kernel tests and
// FuzzKernelEquivalence hold the index to (exported to tests via
// export_test.go).
func (c *Capacity) minAvailableLinear(iv simtime.Interval) int64 {
	if iv.End < iv.Start {
		iv.End = iv.Start
	}
	i := c.segIndex(iv.Start)
	minAvail := c.segs[i].avail
	for i++; i < len(c.segs) && c.segs[i].start < iv.End; i++ {
		if c.segs[i].avail < minAvail {
			minAvail = c.segs[i].avail
		}
	}
	return minAvail
}

// ensureIndex rebuilds the segment-min index if a mutation invalidated
// it. Safe for concurrent queries: the atomic dirty flag is double-checked
// under mu, and a reader only touches idx after observing dirty == false,
// which orders it after the rebuild that cleared the flag.
func (c *Capacity) ensureIndex() {
	if !c.dirty.Load() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dirty.Load() {
		c.idx.rebuild(c.segs, c.dirtyFrom)
		c.dirtyFrom = len(c.segs)
		c.dirty.Store(false)
	}
}

// markDirty records that segment indices >= i may have changed since the
// last rebuild.
func (c *Capacity) markDirty(i int) {
	c.minEverDirty.Store(true)
	if !c.dirty.Load() {
		c.dirtyFrom = i
		c.dirty.Store(true)
	} else if i < c.dirtyFrom {
		c.dirtyFrom = i
	}
}

// minTable is a sparse table for range-minimum queries over the segment
// availabilities: level[k][i] is the minimum over segs[i : i+2^k]. A full
// build is O(n log n); queries are O(1). Rebuilds are incremental: given
// the lowest segment index mutated since the last build, only entries
// whose window reaches into that suffix are recomputed, and backing
// arrays are reused, so the steady state allocates nothing.
type minTable struct {
	level [][]int64
	// built[k] is how many leading entries of level[k] were valid after
	// the last rebuild. Rows dropped when the profile shrank below a
	// power of two are marked stale (built = 0) so a later regrowth
	// rebuilds them from scratch instead of trusting values computed
	// against a long-gone segment layout.
	built []int
}

// rebuild refreshes the table for segs, where segment indices below
// `from` are unchanged since the last rebuild. A level-k entry at i
// covers segs[i : i+2^k]; it stays valid iff that window lies entirely
// in the unchanged prefix AND the entry was valid last time, so the scan
// restarts at min(from-2^k+1, built[k]).
func (m *minTable) rebuild(segs []capSegment, from int) {
	n := len(segs)
	if from < 0 {
		from = 0
	}
	if from > n {
		from = n
	}
	levels := bits.Len(uint(n)) // 2^(levels-1) <= n
	for len(m.level) < levels {
		m.level = append(m.level, nil)
		m.built = append(m.built, 0)
	}
	for k := levels; k < len(m.built); k++ {
		m.built[k] = 0
	}
	// Profiles grow a few segments per commit, so size fresh rows with
	// slack: without it every rebuild of a growing profile reallocates
	// every level. Reallocation copies the old row so the valid prefix
	// survives.
	grow := func(s []int64, n int) []int64 {
		if cap(s) < n {
			ns := make([]int64, n, 2*n)
			copy(ns, s)
			return ns
		}
		return s[:n]
	}
	for k := 0; k < levels; k++ {
		width := 1 << k
		rows := n - width + 1
		start := from - width + 1
		if start < 0 {
			start = 0
		}
		if start > m.built[k] {
			start = m.built[k]
		}
		if start > rows {
			start = rows
		}
		m.level[k] = grow(m.level[k], rows)
		if k == 0 {
			for i := start; i < rows; i++ {
				m.level[0][i] = segs[i].avail
			}
		} else {
			prev, half := m.level[k-1], width/2
			for i := start; i < rows; i++ {
				a, b := prev[i], prev[i+half]
				if b < a {
					a = b
				}
				m.level[k][i] = a
			}
		}
		m.built[k] = rows
	}
}

// min returns the minimum availability over segment indices [i, j], j >= i.
func (m *minTable) min(i, j int) int64 {
	k := bits.Len(uint(j-i+1)) - 1
	a, b := m.level[k][i], m.level[k][j+1-1<<k]
	if b < a {
		return b
	}
	return a
}

// CanReserve reports whether amount bytes are available over all of iv.
func (c *Capacity) CanReserve(amount int64, iv simtime.Interval) bool {
	if amount <= c.MinEver() {
		return true // fits at the profile's all-time low, so on any interval
	}
	return c.MinAvailable(iv) >= amount
}

// MinEver returns the minimum available bytes over the entire timeline —
// the strongest interval-independent guarantee the profile can give. The
// value is cached across queries and rescanned only after a mutation.
func (c *Capacity) MinEver() int64 {
	if c.minEverDirty.Load() {
		c.mu.Lock()
		if c.minEverDirty.Load() {
			m := c.segs[0].avail
			for _, s := range c.segs[1:] {
				if s.avail < m {
					m = s.avail
				}
			}
			c.minEver = m
			c.minEverDirty.Store(false)
		}
		c.mu.Unlock()
	}
	return c.minEver
}

// Reserve decrements the available capacity by amount over iv. It fails
// with ErrInsufficient (leaving the profile unchanged) if the amount is not
// available over the whole interval. Reserving over an empty interval is a
// no-op. A negative amount is rejected.
func (c *Capacity) Reserve(amount int64, iv simtime.Interval) error {
	if amount < 0 {
		return fmt.Errorf("resource: negative reservation %d", amount)
	}
	if iv.IsEmpty() || amount == 0 {
		return nil
	}
	if !c.CanReserve(amount, iv) {
		return ErrInsufficient
	}
	c.adjust(-amount, iv)
	return nil
}

// adjust adds delta to the available amount over iv, splitting segments at
// the interval boundaries as needed. The whole operation is local to the
// segments the interval touches: only [lo, hi) is modified, and only the
// two edges of that range can newly merge with an outside neighbor
// (interior neighbors moved by the same delta, so an already-coalesced
// profile stays coalesced there). Nothing below lo changes, which is what
// lets the index rebuild skip the unchanged prefix.
func (c *Capacity) adjust(delta int64, iv simtime.Interval) {
	c.splitAt(iv.Start)
	lo := c.segIndex(iv.Start) // first adjusted segment, starts exactly at iv.Start
	hi := len(c.segs)          // one past the last adjusted segment
	if iv.End != simtime.Forever {
		c.splitAt(iv.End) // inserts strictly after lo, so lo stays valid
		hi = c.segIndex(iv.End)
	}
	for k := lo; k < hi; k++ {
		c.segs[k].avail += delta
	}
	// Edge coalescing, right edge first so removing at lo cannot shift hi.
	if hi < len(c.segs) && c.segs[hi].avail == c.segs[hi-1].avail {
		c.segs = append(c.segs[:hi], c.segs[hi+1:]...)
	}
	if lo > 0 && c.segs[lo].avail == c.segs[lo-1].avail {
		c.segs = append(c.segs[:lo], c.segs[lo+1:]...)
	}
	c.markDirty(lo)
}

// splitAt ensures a segment boundary exists exactly at t.
func (c *Capacity) splitAt(t simtime.Instant) {
	i := c.segIndex(t)
	if c.segs[i].start == t {
		return
	}
	c.segs = append(c.segs, capSegment{})
	copy(c.segs[i+2:], c.segs[i+1:])
	c.segs[i+1] = capSegment{start: t, avail: c.segs[i].avail}
}

// segIndex returns the index of the segment in effect at t.
func (c *Capacity) segIndex(t simtime.Instant) int {
	lo, hi := 0, len(c.segs)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.segs[mid].start <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// String renders the profile for diagnostics.
func (c *Capacity) String() string {
	out := ""
	for i, s := range c.segs {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("[%v→%d]", s.start, s.avail)
	}
	return out
}
