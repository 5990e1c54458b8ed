package resource

import (
	"errors"
	"testing"
	"time"

	"datastaging/internal/simtime"
)

func at(d time.Duration) simtime.Instant { return simtime.At(d) }

func span(start, end time.Duration) simtime.Interval {
	return simtime.Interval{Start: at(start), End: at(end)}
}

func TestCapacityFreshProfile(t *testing.T) {
	c := NewCapacity(1000)
	if got := c.AvailableAt(at(0)); got != 1000 {
		t.Errorf("AvailableAt(0): got %d, want 1000", got)
	}
	if got := c.MinAvailable(span(0, time.Hour)); got != 1000 {
		t.Errorf("MinAvailable: got %d, want 1000", got)
	}
	if !c.CanReserve(1000, span(0, time.Hour)) {
		t.Error("should be able to reserve full capacity")
	}
	if c.CanReserve(1001, span(0, time.Hour)) {
		t.Error("should not be able to over-reserve")
	}
}

func TestCapacityReserveAndQuery(t *testing.T) {
	c := NewCapacity(1000)
	if err := c.Reserve(400, span(10*time.Minute, 20*time.Minute)); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	for _, tc := range []struct {
		at   time.Duration
		want int64
	}{
		{0, 1000}, {10 * time.Minute, 600}, {15 * time.Minute, 600},
		{20 * time.Minute, 1000}, {time.Hour, 1000},
	} {
		if got := c.AvailableAt(at(tc.at)); got != tc.want {
			t.Errorf("AvailableAt(%v): got %d, want %d", tc.at, got, tc.want)
		}
	}
	if got := c.MinAvailable(span(0, time.Hour)); got != 600 {
		t.Errorf("MinAvailable across reservation: got %d, want 600", got)
	}
	if got := c.MinAvailable(span(20*time.Minute, time.Hour)); got != 1000 {
		t.Errorf("MinAvailable after reservation: got %d, want 1000", got)
	}
}

func TestCapacityOverlappingReservations(t *testing.T) {
	c := NewCapacity(1000)
	if err := c.Reserve(400, span(0, 30*time.Minute)); err != nil {
		t.Fatalf("first Reserve: %v", err)
	}
	if err := c.Reserve(400, span(15*time.Minute, 45*time.Minute)); err != nil {
		t.Fatalf("second Reserve: %v", err)
	}
	if got := c.AvailableAt(at(20 * time.Minute)); got != 200 {
		t.Errorf("overlap region: got %d, want 200", got)
	}
	// A third 400-byte reservation over the overlap must fail atomically.
	err := c.Reserve(400, span(10*time.Minute, 40*time.Minute))
	if !errors.Is(err, ErrInsufficient) {
		t.Fatalf("third Reserve: got %v, want ErrInsufficient", err)
	}
	// Profile unchanged by the failed reservation.
	if got := c.AvailableAt(at(5 * time.Minute)); got != 600 {
		t.Errorf("after failed reserve: got %d, want 600", got)
	}
	// But it fits where only one reservation is active.
	if err := c.Reserve(400, span(30*time.Minute, 40*time.Minute)); err != nil {
		t.Errorf("non-overlapping Reserve: %v", err)
	}
}

func TestCapacityReserveForever(t *testing.T) {
	c := NewCapacity(100)
	iv := simtime.Interval{Start: at(time.Minute), End: simtime.Forever}
	if err := c.Reserve(60, iv); err != nil {
		t.Fatalf("Reserve to Forever: %v", err)
	}
	if got := c.AvailableAt(at(0)); got != 100 {
		t.Errorf("before reservation: got %d, want 100", got)
	}
	if got := c.AvailableAt(at(24 * time.Hour * 365)); got != 40 {
		t.Errorf("far future: got %d, want 40", got)
	}
	if c.CanReserve(50, span(2*time.Minute, 3*time.Minute)) {
		t.Error("should not fit 50 after permanent reservation of 60")
	}
}

func TestCapacityReserveEdgeCases(t *testing.T) {
	c := NewCapacity(100)
	if err := c.Reserve(0, span(0, time.Minute)); err != nil {
		t.Errorf("zero reserve: %v", err)
	}
	if err := c.Reserve(50, span(time.Minute, time.Minute)); err != nil {
		t.Errorf("empty interval reserve: %v", err)
	}
	if got := c.MinAvailable(span(0, time.Hour)); got != 100 {
		t.Errorf("no-op reserves changed profile: got %d", got)
	}
	if err := c.Reserve(-1, span(0, time.Minute)); err == nil {
		t.Error("negative reserve should fail")
	}
	// Empty MinAvailable interval samples the start instant.
	if got := c.MinAvailable(span(time.Minute, time.Minute)); got != 100 {
		t.Errorf("point MinAvailable: got %d, want 100", got)
	}
}

func TestCapacityReleaseInvertsReserve(t *testing.T) {
	c := NewCapacity(500)
	iv := span(10*time.Minute, 50*time.Minute)
	if err := c.Reserve(200, iv); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	c.Release(200, iv)
	if got := c.MinAvailable(span(0, time.Hour)); got != 500 {
		t.Errorf("after release: got %d, want 500", got)
	}
	if got := len(c.segs); got != 1 {
		t.Errorf("segments did not coalesce: got %d, want 1", got)
	}
}

func TestCapacityReleaseNoOps(t *testing.T) {
	c := NewCapacity(100)
	c.Release(50, span(time.Minute, time.Minute)) // empty interval
	c.Release(0, span(0, time.Minute))            // zero amount
	c.Release(-5, span(0, time.Minute))           // negative amount
	if got := c.MinAvailable(span(0, time.Hour)); got != 100 {
		t.Errorf("no-op releases changed the profile: %d", got)
	}
}

func TestCapacityAbuttingReservationsCoalesce(t *testing.T) {
	c := NewCapacity(100)
	if err := c.Reserve(40, span(0, 10*time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := c.Reserve(40, span(10*time.Minute, 20*time.Minute)); err != nil {
		t.Fatal(err)
	}
	if got := c.MinAvailable(span(0, 20*time.Minute)); got != 60 {
		t.Errorf("abutting reservations: got %d, want 60", got)
	}
	if got := c.AvailableAt(at(10 * time.Minute)); got != 60 {
		t.Errorf("at boundary: got %d, want 60", got)
	}
	if c.String() == "" {
		t.Error("String should be non-empty")
	}
}
