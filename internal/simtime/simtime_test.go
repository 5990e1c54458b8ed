package simtime

import (
	"math"
	"slices"
	"testing"
	"time"
)

func iv(start, end time.Duration) Interval {
	return Interval{Start: Instant(start), End: Instant(end)}
}

func TestInstantArithmetic(t *testing.T) {
	a := At(10 * time.Second)
	if got := a.Add(5 * time.Second); got != At(15*time.Second) {
		t.Errorf("Add: got %v, want 15s", got)
	}
	if got := a.Sub(At(4 * time.Second)); got != 6*time.Second {
		t.Errorf("Sub: got %v, want 6s", got)
	}
	if !a.Before(At(11 * time.Second)) {
		t.Error("Before: 10s should be before 11s")
	}
	if !a.After(At(9 * time.Second)) {
		t.Error("After: 10s should be after 9s")
	}
	if got := a.Seconds(); got != 10 {
		t.Errorf("Seconds: got %v, want 10", got)
	}
	if got := a.Duration(); got != 10*time.Second {
		t.Errorf("Duration: got %v, want 10s", got)
	}
}

func TestInstantNeverSaturates(t *testing.T) {
	if got := Never.Add(time.Hour); got != Never {
		t.Errorf("Never.Add: got %v, want Never", got)
	}
	big := Instant(math.MaxInt64 - 10)
	if got := big.Add(time.Hour); got != Never {
		t.Errorf("overflowing Add: got %v, want Never", got)
	}
	if Never.String() != "never" {
		t.Errorf("Never.String: got %q", Never.String())
	}
}

func TestInstantMinMax(t *testing.T) {
	a, b := At(time.Second), At(2*time.Second)
	if MinInstant(a, b) != a || MinInstant(b, a) != a {
		t.Error("MinInstant wrong")
	}
	if MaxInstant(a, b) != b || MaxInstant(b, a) != b {
		t.Error("MaxInstant wrong")
	}
}

func TestIntervalBasics(t *testing.T) {
	x := iv(10, 20)
	if x.IsEmpty() {
		t.Error("non-empty interval reported empty")
	}
	if iv(10, 10).IsEmpty() != true || iv(10, 5).IsEmpty() != true {
		t.Error("empty/inverted interval not reported empty")
	}
	if got := x.Length(); got != 10 {
		t.Errorf("Length: got %v, want 10ns", got)
	}
	if got := iv(10, 5).Length(); got != 0 {
		t.Errorf("empty Length: got %v, want 0", got)
	}
	if !x.Contains(Instant(10)) || x.Contains(Instant(20)) {
		t.Error("half-open containment wrong at boundaries")
	}
	if !x.ContainsInterval(iv(12, 18)) || x.ContainsInterval(iv(5, 15)) {
		t.Error("ContainsInterval wrong")
	}
	if !x.ContainsInterval(iv(3, 3)) {
		t.Error("empty interval should be contained in anything")
	}
}

func TestIntervalOverlapIntersect(t *testing.T) {
	tests := []struct {
		name    string
		a, b    Interval
		overlap bool
		isect   Interval
	}{
		{"disjoint", iv(0, 5), iv(10, 15), false, Interval{}},
		{"abutting", iv(0, 5), iv(5, 10), false, Interval{}},
		{"partial", iv(0, 7), iv(5, 10), true, iv(5, 7)},
		{"nested", iv(0, 10), iv(3, 4), true, iv(3, 4)},
		{"identical", iv(2, 9), iv(2, 9), true, iv(2, 9)},
		{"empty-a", iv(5, 5), iv(0, 10), false, Interval{}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.a.Overlaps(tc.b); got != tc.overlap {
				t.Errorf("Overlaps: got %v, want %v", got, tc.overlap)
			}
			if got := tc.b.Overlaps(tc.a); got != tc.overlap {
				t.Errorf("Overlaps (reversed): got %v, want %v", got, tc.overlap)
			}
			if got := tc.a.Intersect(tc.b); got != tc.isect {
				t.Errorf("Intersect: got %v, want %v", got, tc.isect)
			}
		})
	}
}

func TestSpan(t *testing.T) {
	got := Span(At(10*time.Second), 5*time.Second)
	want := Interval{Start: At(10 * time.Second), End: At(15 * time.Second)}
	if got != want {
		t.Errorf("Span: got %v, want %v", got, want)
	}
}

func TestSetAddMerges(t *testing.T) {
	tests := []struct {
		name string
		add  []Interval
		want []Interval
	}{
		{"empty ignored", []Interval{iv(5, 5)}, nil},
		{"single", []Interval{iv(0, 5)}, []Interval{iv(0, 5)}},
		{"disjoint sorted", []Interval{iv(0, 5), iv(10, 15)}, []Interval{iv(0, 5), iv(10, 15)}},
		{"disjoint unsorted", []Interval{iv(10, 15), iv(0, 5)}, []Interval{iv(0, 5), iv(10, 15)}},
		{"abutting merge", []Interval{iv(0, 5), iv(5, 10)}, []Interval{iv(0, 10)}},
		{"overlap merge", []Interval{iv(0, 7), iv(5, 10)}, []Interval{iv(0, 10)}},
		{"bridge three", []Interval{iv(0, 3), iv(6, 9), iv(2, 7)}, []Interval{iv(0, 9)}},
		{"contained noop", []Interval{iv(0, 10), iv(2, 3)}, []Interval{iv(0, 10)}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSet(tc.add...)
			got := s.ivs
			if len(got) != len(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("got %v, want %v", got, tc.want)
				}
			}
		})
	}
}

func TestSetSubtract(t *testing.T) {
	tests := []struct {
		name string
		base []Interval
		sub  Interval
		want []Interval
	}{
		{"from empty", nil, iv(0, 5), nil},
		{"no overlap", []Interval{iv(0, 5)}, iv(10, 20), []Interval{iv(0, 5)}},
		{"exact", []Interval{iv(0, 5)}, iv(0, 5), nil},
		{"split", []Interval{iv(0, 10)}, iv(3, 6), []Interval{iv(0, 3), iv(6, 10)}},
		{"left chop", []Interval{iv(0, 10)}, iv(0, 4), []Interval{iv(4, 10)}},
		{"right chop", []Interval{iv(0, 10)}, iv(7, 12), []Interval{iv(0, 7)}},
		{"across two", []Interval{iv(0, 5), iv(8, 12)}, iv(3, 10), []Interval{iv(0, 3), iv(10, 12)}},
		{"empty sub", []Interval{iv(0, 5)}, iv(3, 3), []Interval{iv(0, 5)}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSet(tc.base...)
			s.Subtract(tc.sub)
			got := s.ivs
			if len(got) != len(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("got %v, want %v", got, tc.want)
				}
			}
		})
	}
}

func TestSetContains(t *testing.T) {
	s := NewSet(iv(0, 5), iv(10, 15), iv(20, 25))
	for _, tc := range []struct {
		t    Instant
		want bool
	}{
		{Instant(0), true}, {Instant(4), true}, {Instant(5), false},
		{Instant(7), false}, {Instant(10), true}, {Instant(14), true},
		{Instant(15), false}, {Instant(24), true}, {Instant(25), false},
		{Instant(-1), false}, {Instant(100), false},
	} {
		if got := s.Contains(tc.t); got != tc.want {
			t.Errorf("Contains(%d): got %v, want %v", tc.t, got, tc.want)
		}
	}
	if !s.ContainsInterval(iv(10, 15)) || s.ContainsInterval(iv(4, 6)) {
		t.Error("ContainsInterval wrong")
	}
	if !s.ContainsInterval(iv(8, 8)) {
		t.Error("empty interval should be contained")
	}
}

func TestSetEarliestFit(t *testing.T) {
	s := NewSet(iv(10, 20), iv(30, 50))
	tests := []struct {
		name  string
		ready Instant
		d     time.Duration
		want  Instant
		ok    bool
	}{
		{"fits first", Instant(0), 5, Instant(10), true},
		{"fits at ready", Instant(12), 5, Instant(12), true},
		{"too big for first", Instant(0), 15, Instant(30), true},
		{"ready mid-first, pushed to second", Instant(16), 8, Instant(30), true},
		{"exact fit", Instant(10), 10, Instant(10), true},
		{"no fit anywhere", Instant(0), 25, Never, false},
		{"ready past all", Instant(60), 1, Never, false},
		{"zero duration", Instant(25), 0, Instant(30), true},
		{"zero duration inside", Instant(35), 0, Instant(35), true},
		{"negative treated as zero", Instant(35), -5, Instant(35), true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := s.EarliestFit(tc.ready, tc.d)
			if ok != tc.ok || (ok && got != tc.want) {
				t.Errorf("EarliestFit(%d, %d): got (%d, %v), want (%d, %v)",
					tc.ready, tc.d, got, ok, tc.want, tc.ok)
			}
		})
	}
}

func TestSetIntersectSet(t *testing.T) {
	a := NewSet(iv(0, 10), iv(20, 30))
	b := NewSet(iv(5, 25))
	got := a.IntersectSet(&b)
	want := NewSet(iv(5, 10), iv(20, 25))
	if !slices.Equal(got.ivs, want.ivs) {
		t.Errorf("IntersectSet: got %v, want %v", got.String(), want.String())
	}
	empty := NewSet()
	if got := a.IntersectSet(&empty); len(got.ivs) != 0 {
		t.Errorf("intersect with empty: got %v", got.String())
	}
}

func TestSetTotalCloneEqual(t *testing.T) {
	s := NewSet(iv(0, 5), iv(10, 20))
	if got := s.Total(); got != 15 {
		t.Errorf("Total: got %v, want 15ns", got)
	}
	c := s.Clone()
	if !slices.Equal(c.ivs, s.ivs) {
		t.Error("clone not equal to original")
	}
	c.Subtract(iv(0, 1))
	if slices.Equal(c.ivs, s.ivs) {
		t.Error("mutating clone affected original")
	}
	if s.Len() != 2 {
		t.Errorf("Len: got %d, want 2", s.Len())
	}
}

func TestSetString(t *testing.T) {
	var s Set
	if s.String() != "{}" {
		t.Errorf("empty String: got %q", s.String())
	}
	s.Add(iv(0, 5))
	if s.String() == "" {
		t.Error("non-empty String empty")
	}
}
