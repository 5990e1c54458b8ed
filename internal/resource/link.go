package resource

import (
	"fmt"
	"sync/atomic"
	"time"

	"datastaging/internal/simtime"
)

// LinkTimeline tracks the occupancy of one virtual communication link: a
// serial transmission resource that exists only inside its availability
// window [Lst, Let) (paper §3). A transfer occupies the link exclusively for
// its whole duration, and a transfer must fit entirely inside the window —
// transfers are never split across virtual links.
type LinkTimeline struct {
	window simtime.Interval
	free   simtime.Set

	// hint is the monotone EarliestSlot cursor: the free-set interval
	// index the last query landed on. Dijkstra relaxations query each
	// link with non-decreasing ready times, so the next query usually
	// starts exactly where the last one ended; a stale hint is detected
	// and falls back to the indexed search, so correctness never depends
	// on it. Commit and Block invalidate it (the free set changed).
	// Atomic because concurrent readers share the timeline read-only; the
	// hint is the one cell they may both touch.
	hint atomic.Int64
}

// NewLinkTimeline returns an idle timeline for a link available over window.
func NewLinkTimeline(window simtime.Interval) *LinkTimeline {
	return &LinkTimeline{window: window, free: simtime.NewSet(window)}
}

// NewLinkTimelines returns one idle timeline per window. The timelines and
// their free sets are drawn from batched backing allocations (see
// simtime.NewSets): a scenario's state holds one timeline per virtual link
// — thousands — so per-timeline allocation would dominate state
// construction.
func NewLinkTimelines(windows []simtime.Interval) []*LinkTimeline {
	tls := make([]LinkTimeline, len(windows))
	sets := simtime.NewSets(windows)
	out := make([]*LinkTimeline, len(windows))
	for i := range tls {
		tls[i].window = windows[i]
		tls[i].free = sets[i]
		out[i] = &tls[i]
	}
	return out
}

// Free exposes the link's free-time set for read-only composition (e.g.
// intersecting link, send-port, and receive-port availability). Callers
// must not mutate it.
func (l *LinkTimeline) Free() *simtime.Set { return &l.free }

// EarliestSlot returns the earliest instant t >= ready at which a transfer
// of duration d can start so that [t, t+d) is free link time inside the
// window. ok is false when no such slot exists. A zero or negative d asks
// for the first free instant (a zero-length transfer still has to happen
// while the link exists).
func (l *LinkTimeline) EarliestSlot(ready simtime.Instant, d time.Duration) (start simtime.Instant, ok bool) {
	start, ok, _ = l.EarliestSlotHinted(ready, d)
	return start, ok
}

// EarliestSlotHinted is EarliestSlot, additionally reporting whether the
// link's monotone cursor hint was valid for this query — the fast path
// that skips even the binary search into the free set.
func (l *LinkTimeline) EarliestSlotHinted(ready simtime.Instant, d time.Duration) (start simtime.Instant, ok, hinted bool) {
	start, next, ok, hinted := l.free.EarliestFitHint(int(l.hint.Load()), ready, d)
	l.hint.Store(int64(next))
	return start, ok, hinted
}

// CanCommit reports whether [start, start+d) is currently free link time.
func (l *LinkTimeline) CanCommit(start simtime.Instant, d time.Duration) bool {
	if d < 0 {
		return false
	}
	if d == 0 {
		return l.free.Contains(start)
	}
	return l.free.ContainsInterval(simtime.Span(start, d))
}

// Commit reserves [start, start+d) on the link. It fails, leaving the
// timeline unchanged, if that span is not entirely free.
func (l *LinkTimeline) Commit(start simtime.Instant, d time.Duration) error {
	if !l.CanCommit(start, d) {
		return fmt.Errorf("resource: link slot %v+%v not free (window %v)", start, d, l.window)
	}
	l.free.Subtract(simtime.Span(start, d))
	l.hint.Store(-1)
	return nil
}

// Block removes iv from the link's free time without a transfer: an
// administrative outage. Free time already consumed by commits is
// unaffected (it is already gone).
func (l *LinkTimeline) Block(iv simtime.Interval) {
	l.free.Subtract(iv)
	l.hint.Store(-1)
}

// BusyTime returns the total committed transmission time on the link.
func (l *LinkTimeline) BusyTime() time.Duration {
	return l.window.Length() - l.free.Total()
}

// String renders the timeline for diagnostics.
func (l *LinkTimeline) String() string {
	return fmt.Sprintf("link window=%v free=%v", l.window, l.free.String())
}
