package resource

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"datastaging/internal/simtime"
)

// capScript is a random sequence of reservation attempts over a small
// discrete time domain.
type capScript struct {
	total int64
	ops   []capOp
}

type capOp struct {
	amount     int64
	start, end int16
}

// Generate implements quick.Generator.
func (capScript) Generate(r *rand.Rand, size int) reflect.Value {
	s := capScript{
		total: int64(r.Intn(500) + 1),
		ops:   make([]capOp, r.Intn(size+1)),
	}
	for i := range s.ops {
		a, b := int16(r.Intn(100)), int16(r.Intn(100))
		if a > b {
			a, b = b, a
		}
		s.ops[i] = capOp{
			amount: int64(r.Intn(300)),
			start:  a,
			end:    b,
		}
	}
	return reflect.ValueOf(s)
}

// naiveCap models capacity as an explicit per-instant usage array.
type naiveCap struct {
	total int64
	used  [110]int64
}

func (n *naiveCap) canReserve(amount int64, start, end int16) bool {
	for t := start; t < end; t++ {
		if n.used[t]+amount > n.total {
			return false
		}
	}
	return true
}

func (n *naiveCap) reserve(amount int64, start, end int16) {
	for t := start; t < end; t++ {
		n.used[t] += amount
	}
}

// TestQuickCapacityMatchesNaiveModel replays random reservation scripts
// against the segment-based profile and a brute-force per-instant model:
// accept/reject decisions and the resulting availability must agree
// everywhere.
func TestQuickCapacityMatchesNaiveModel(t *testing.T) {
	property := func(script capScript) bool {
		c := NewCapacity(script.total)
		ref := naiveCap{total: script.total}
		for _, op := range script.ops {
			iv := simtime.Interval{Start: simtime.Instant(op.start), End: simtime.Instant(op.end)}
			wantOK := ref.canReserve(op.amount, op.start, op.end) || iv.IsEmpty() || op.amount == 0
			err := c.Reserve(op.amount, iv)
			if (err == nil) != wantOK {
				t.Logf("Reserve(%d, [%d,%d)): got err=%v, naive ok=%v", op.amount, op.start, op.end, err, wantOK)
				return false
			}
			if err == nil && !iv.IsEmpty() {
				ref.reserve(op.amount, op.start, op.end)
			}
		}
		for tm := int16(0); tm < 105; tm++ {
			want := script.total - ref.used[tm]
			if got := c.AvailableAt(simtime.Instant(tm)); got != want {
				t.Logf("AvailableAt(%d): got %d, want %d", tm, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestQuickCapacityNeverNegative: whatever sequence of accepted
// reservations happens, availability never dips below zero and Segments
// stays bounded by the breakpoint count.
func TestQuickCapacityNeverNegative(t *testing.T) {
	property := func(script capScript) bool {
		c := NewCapacity(script.total)
		accepted := 0
		for _, op := range script.ops {
			iv := simtime.Interval{Start: simtime.Instant(op.start), End: simtime.Instant(op.end)}
			if c.Reserve(op.amount, iv) == nil && !iv.IsEmpty() && op.amount > 0 {
				accepted++
			}
		}
		for tm := int16(0); tm < 105; tm++ {
			if c.AvailableAt(simtime.Instant(tm)) < 0 {
				return false
			}
		}
		// Each accepted reservation introduces at most two breakpoints.
		return len(c.segs) <= 2*accepted+1
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestQuickLinkTimelineSerializes: commit random accepted slots and verify
// via EarliestSlot that the timeline never double-books and never books
// outside the window.
func TestQuickLinkTimelineSerializes(t *testing.T) {
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		window := simtime.Interval{Start: 10, End: 90}
		l := NewLinkTimeline(window)
		type slot struct{ start, end simtime.Instant }
		var committed []slot
		for i := 0; i < 30; i++ {
			start := simtime.Instant(r.Intn(100))
			d := time.Duration(r.Intn(20))
			if l.CanCommit(start, d) {
				if err := l.Commit(start, d); err != nil {
					return false
				}
				committed = append(committed, slot{start, start + simtime.Instant(d)})
			}
		}
		// No two committed slots with positive length overlap and all lie
		// inside the window. Zero-length commits occupy no link time and
		// never conflict.
		for i, a := range committed {
			if a.start < window.Start || a.end > window.End {
				return false
			}
			if a.start == a.end {
				continue
			}
			for _, b := range committed[i+1:] {
				if b.start == b.end {
					continue
				}
				if a.start < b.end && b.start < a.end {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
