package resource

import (
	"testing"
	"time"
)

func TestLinkTimelineEarliestSlot(t *testing.T) {
	l := NewLinkTimeline(span(10*time.Minute, 40*time.Minute))
	tests := []struct {
		name  string
		ready time.Duration
		d     time.Duration
		want  time.Duration
		ok    bool
	}{
		{"before window", 0, 5 * time.Minute, 10 * time.Minute, true},
		{"inside window", 15 * time.Minute, 5 * time.Minute, 15 * time.Minute, true},
		{"exact tail fit", 35 * time.Minute, 5 * time.Minute, 35 * time.Minute, true},
		{"too late", 36 * time.Minute, 5 * time.Minute, 0, false},
		{"too long", 0, 31 * time.Minute, 0, false},
		{"whole window", 0, 30 * time.Minute, 10 * time.Minute, true},
		{"zero duration", 0, 0, 10 * time.Minute, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := l.EarliestSlot(at(tc.ready), tc.d)
			if ok != tc.ok || (ok && got != at(tc.want)) {
				t.Errorf("EarliestSlot(%v, %v): got (%v, %v), want (%v, %v)",
					tc.ready, tc.d, got, ok, tc.want, tc.ok)
			}
		})
	}
}

func TestLinkTimelineCommitSerializes(t *testing.T) {
	l := NewLinkTimeline(span(0, time.Hour))
	if err := l.Commit(at(10*time.Minute), 20*time.Minute); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	// Overlapping commit rejected.
	if err := l.Commit(at(25*time.Minute), 10*time.Minute); err == nil {
		t.Error("overlapping Commit should fail")
	}
	// A transfer ready at 15m must wait until the link frees at 30m.
	got, ok := l.EarliestSlot(at(15*time.Minute), 10*time.Minute)
	if !ok || got != at(30*time.Minute) {
		t.Errorf("EarliestSlot after commit: got (%v, %v), want 30m", got, ok)
	}
	// An earlier gap still serves short transfers.
	got, ok = l.EarliestSlot(at(0), 10*time.Minute)
	if !ok || got != at(0) {
		t.Errorf("EarliestSlot in leading gap: got (%v, %v), want 0", got, ok)
	}
	if got := l.BusyTime(); got != 20*time.Minute {
		t.Errorf("BusyTime: got %v, want 20m", got)
	}
}

func TestLinkTimelineCommitOutsideWindow(t *testing.T) {
	l := NewLinkTimeline(span(10*time.Minute, 20*time.Minute))
	if err := l.Commit(at(5*time.Minute), 2*time.Minute); err == nil {
		t.Error("Commit before window should fail")
	}
	if err := l.Commit(at(15*time.Minute), 10*time.Minute); err == nil {
		t.Error("Commit extending past window should fail")
	}
	if err := l.Commit(at(12*time.Minute), -time.Minute); err == nil {
		t.Error("negative duration Commit should fail")
	}
	if err := l.Commit(at(12*time.Minute), 0); err != nil {
		t.Errorf("zero duration Commit inside window: %v", err)
	}
	if got := l.BusyTime(); got != 0 {
		t.Errorf("failed commits consumed time: %v", got)
	}
}

func TestLinkTimelineBackToBack(t *testing.T) {
	l := NewLinkTimeline(span(0, 30*time.Minute))
	if err := l.Commit(at(0), 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(at(10*time.Minute), 10*time.Minute); err != nil {
		t.Fatalf("abutting Commit should succeed: %v", err)
	}
	if err := l.Commit(at(20*time.Minute), 10*time.Minute); err != nil {
		t.Fatalf("filling Commit should succeed: %v", err)
	}
	if _, ok := l.EarliestSlot(at(0), time.Nanosecond); ok {
		t.Error("fully busy link should have no slot")
	}
}

func TestLinkTimelineBlock(t *testing.T) {
	l := NewLinkTimeline(span(0, time.Hour))
	l.Block(span(30*time.Minute, time.Hour))
	if _, ok := l.EarliestSlot(at(31*time.Minute), time.Minute); ok {
		t.Error("slot found inside blocked region")
	}
	if slot, ok := l.EarliestSlot(at(0), 10*time.Minute); !ok || slot != at(0) {
		t.Errorf("pre-block slot: got (%v, %v)", slot, ok)
	}
	// Free exposes the remaining availability.
	if got := l.Free().Total(); got != 30*time.Minute {
		t.Errorf("Free total: got %v, want 30m", got)
	}
	if l.String() == "" {
		t.Error("String should be non-empty")
	}
}
