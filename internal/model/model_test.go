package model

import (
	"testing"
	"time"

	"datastaging/internal/simtime"
)

func window(start, end time.Duration) simtime.Interval {
	return simtime.Interval{Start: simtime.At(start), End: simtime.At(end)}
}

func TestPriorityString(t *testing.T) {
	for _, tc := range []struct {
		p    Priority
		want string
	}{
		{Low, "low"}, {Medium, "medium"}, {High, "high"}, {Priority(7), "priority(7)"},
	} {
		if got := tc.p.String(); got != tc.want {
			t.Errorf("Priority(%d).String: got %q, want %q", tc.p, got, tc.want)
		}
	}
}

func TestWeightsOf(t *testing.T) {
	w := Weights1x10x100
	if got := w.Of(Low); got != 1 {
		t.Errorf("Of(Low): got %v, want 1", got)
	}
	if got := w.Of(High); got != 100 {
		t.Errorf("Of(High): got %v, want 100", got)
	}
	if got := w.Of(Priority(-1)); got != 0 {
		t.Errorf("Of(-1): got %v, want 0", got)
	}
	if got := w.Of(Priority(99)); got != 0 {
		t.Errorf("Of(99): got %v, want 0", got)
	}
	if got := Weights1x5x10.Of(Medium); got != 5 {
		t.Errorf("1/5/10 Of(Medium): got %v, want 5", got)
	}
}

func TestTransferDuration(t *testing.T) {
	l := VirtualLink{BandwidthBPS: 8000} // 1000 bytes/sec
	if got := l.TransferDuration(2000); got != 2*time.Second {
		t.Errorf("TransferDuration(2000B @1000B/s): got %v, want 2s", got)
	}
	l.Latency = 100 * time.Millisecond
	if got := l.TransferDuration(1000); got != time.Second+100*time.Millisecond {
		t.Errorf("with latency: got %v, want 1.1s", got)
	}
	// Rounding never undershoots: 1 byte over 3 bit/s is 8/3 s.
	l3 := VirtualLink{BandwidthBPS: 3}
	d := l3.TransferDuration(1)
	if d.Seconds()*3 < 8 {
		t.Errorf("rounded duration %v carries fewer than 8 bits", d)
	}
	if d > 8*time.Second/3+time.Millisecond {
		t.Errorf("rounding overshoot: %v", d)
	}
	if got := l.TransferDuration(0); got != l.Latency {
		t.Errorf("zero-size transfer: got %v, want latency only", got)
	}
}

func TestItemDeadlinesAndAvailability(t *testing.T) {
	it := Item{
		SizeBytes: 1,
		Sources: []Source{
			{Machine: 0, Available: simtime.At(20 * time.Minute)},
			{Machine: 1, Available: simtime.At(5 * time.Minute)},
		},
		Requests: []Request{
			{Machine: 2, Deadline: simtime.At(30 * time.Minute), Priority: High},
			{Machine: 3, Deadline: simtime.At(45 * time.Minute), Priority: Low},
			{Machine: 4, Deadline: simtime.At(40 * time.Minute), Priority: Medium},
		},
	}
	if got := it.LatestDeadline(); got != simtime.At(45*time.Minute) {
		t.Errorf("LatestDeadline: got %v, want 45m", got)
	}
	empty := Item{}
	if got := empty.LatestDeadline(); got != simtime.Instant(0) {
		t.Errorf("empty LatestDeadline: got %v, want 0", got)
	}
}

func TestRequestIDString(t *testing.T) {
	r := RequestID{Item: 3, Index: 1}
	if got := r.String(); got != "rq[3,1]" {
		t.Errorf("RequestID.String: got %q", got)
	}
}

func twoMachines() []Machine {
	return []Machine{
		{ID: 0, CapacityBytes: 1000},
		{ID: 1, CapacityBytes: 1000},
	}
}

func TestNewNetworkValid(t *testing.T) {
	links := []VirtualLink{
		{ID: 0, From: 0, To: 1, Window: window(0, time.Hour), BandwidthBPS: 1000},
		{ID: 1, From: 1, To: 0, Window: window(0, time.Hour), BandwidthBPS: 1000},
	}
	n, err := NewNetwork(twoMachines(), links)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	if got := n.NumMachines(); got != 2 {
		t.Errorf("NumMachines: got %d", got)
	}
	if got := n.Outgoing(0); len(got) != 1 || got[0] != 0 {
		t.Errorf("Outgoing(0): got %v", got)
	}
	if n.Link(1).From != 1 {
		t.Errorf("Link(1).From: got %d", n.Link(1).From)
	}
	if n.Machine(1).CapacityBytes != 1000 {
		t.Errorf("Machine(1): got %+v", n.Machine(1))
	}
	if !n.StronglyConnected() {
		t.Error("two-machine cycle should be strongly connected")
	}
}

func TestNewNetworkValidationErrors(t *testing.T) {
	good := func() ([]Machine, []VirtualLink) {
		return twoMachines(), []VirtualLink{
			{ID: 0, From: 0, To: 1, Window: window(0, time.Hour), BandwidthBPS: 1000},
		}
	}
	tests := []struct {
		name   string
		mutate func(ms []Machine, ls []VirtualLink) ([]Machine, []VirtualLink)
	}{
		{"no machines", func(ms []Machine, ls []VirtualLink) ([]Machine, []VirtualLink) {
			return nil, ls
		}},
		{"bad machine id", func(ms []Machine, ls []VirtualLink) ([]Machine, []VirtualLink) {
			ms[1].ID = 5
			return ms, ls
		}},
		{"negative capacity", func(ms []Machine, ls []VirtualLink) ([]Machine, []VirtualLink) {
			ms[0].CapacityBytes = -1
			return ms, ls
		}},
		{"bad link id", func(ms []Machine, ls []VirtualLink) ([]Machine, []VirtualLink) {
			ls[0].ID = 9
			return ms, ls
		}},
		{"endpoint out of range", func(ms []Machine, ls []VirtualLink) ([]Machine, []VirtualLink) {
			ls[0].To = 7
			return ms, ls
		}},
		{"self link", func(ms []Machine, ls []VirtualLink) ([]Machine, []VirtualLink) {
			ls[0].To = 0
			return ms, ls
		}},
		{"zero bandwidth", func(ms []Machine, ls []VirtualLink) ([]Machine, []VirtualLink) {
			ls[0].BandwidthBPS = 0
			return ms, ls
		}},
		{"empty window", func(ms []Machine, ls []VirtualLink) ([]Machine, []VirtualLink) {
			ls[0].Window = window(time.Hour, time.Hour)
			return ms, ls
		}},
		{"negative latency", func(ms []Machine, ls []VirtualLink) ([]Machine, []VirtualLink) {
			ls[0].Latency = -time.Second
			return ms, ls
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			ms, ls := good()
			ms, ls = tc.mutate(ms, ls)
			if _, err := NewNetwork(ms, ls); err == nil {
				t.Error("NewNetwork should have failed")
			}
		})
	}
}

func TestOutgoingLazyBuild(t *testing.T) {
	// A Network constructed directly (e.g. by JSON decoding) has no
	// adjacency; Outgoing must build it on first use.
	n := &Network{
		Machines: twoMachines(),
		Links: []VirtualLink{
			{ID: 0, From: 0, To: 1, Window: window(0, time.Hour), BandwidthBPS: 1},
		},
	}
	if got := n.Outgoing(0); len(got) != 1 || got[0] != 0 {
		t.Errorf("lazy Outgoing: got %v", got)
	}
	if got := n.Outgoing(1); len(got) != 0 {
		t.Errorf("Outgoing(1): got %v", got)
	}
}

func TestStronglyConnected(t *testing.T) {
	machines := []Machine{{ID: 0}, {ID: 1}, {ID: 2}}
	mk := func(id LinkID, from, to MachineID) VirtualLink {
		return VirtualLink{ID: id, From: from, To: to, Window: window(0, time.Hour), BandwidthBPS: 1}
	}
	cycle, err := NewNetwork(machines, []VirtualLink{mk(0, 0, 1), mk(1, 1, 2), mk(2, 2, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if !cycle.StronglyConnected() {
		t.Error("3-cycle should be strongly connected")
	}
	chain, err := NewNetwork(machines, []VirtualLink{mk(0, 0, 1), mk(1, 1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if chain.StronglyConnected() {
		t.Error("chain without back edges should not be strongly connected")
	}
	lollipop, err := NewNetwork(machines, []VirtualLink{mk(0, 0, 1), mk(1, 1, 0), mk(2, 1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if lollipop.StronglyConnected() {
		t.Error("node 2 has no path back; should not be strongly connected")
	}
}
