package gen

import (
	"math/rand"
	"testing"
	"time"

	"datastaging/internal/model"
	"datastaging/internal/scenario"
	"datastaging/internal/simtime"
)

func mustGenerate(t *testing.T, p Params, seed int64) *scenario.Scenario {
	t.Helper()
	s, err := Generate(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGenerateDefaultIsValidAndInRanges(t *testing.T) {
	p := Default()
	for seed := int64(1); seed <= 5; seed++ {
		s, err := Generate(p, seed)
		if err != nil {
			t.Fatalf("Generate(seed=%d): %v", seed, err)
		}
		m := s.Network.NumMachines()
		if m < 10 || m > 12 {
			t.Errorf("seed %d: machine count %d outside [10,12]", seed, m)
		}
		if !s.Network.StronglyConnected() {
			t.Errorf("seed %d: not strongly connected", seed)
		}
		nrq := s.NumRequests()
		if nrq < 20*m || nrq > 40*m {
			t.Errorf("seed %d: %d requests outside [%d,%d]", seed, nrq, 20*m, 40*m)
		}
		for _, mach := range s.Network.Machines {
			if mach.CapacityBytes < 10<<20 || mach.CapacityBytes > 20<<30 {
				t.Errorf("seed %d: capacity %d out of range", seed, mach.CapacityBytes)
			}
		}
		checkDegreesAndLinks(t, s.Network, seed)
	}
}

func checkDegreesAndLinks(t *testing.T, net *model.Network, seed int64) {
	t.Helper()
	m := net.NumMachines()
	// Distinct out-neighbors per machine within [4, min(7, m-1)].
	outN := make([]map[model.MachineID]bool, m)
	physPairs := make(map[[2]model.MachineID]map[int]bool)
	for i := range outN {
		outN[i] = make(map[model.MachineID]bool)
	}
	for _, l := range net.Links {
		outN[l.From][l.To] = true
		key := [2]model.MachineID{l.From, l.To}
		if physPairs[key] == nil {
			physPairs[key] = make(map[int]bool)
		}
		physPairs[key][l.Physical] = true
		if l.BandwidthBPS < 10_000 || l.BandwidthBPS > 1_500_000 {
			t.Errorf("seed %d: bandwidth %d out of range", seed, l.BandwidthBPS)
		}
		if l.Window.Start < 0 || l.Window.End > simtime.At(24*time.Hour) {
			t.Errorf("seed %d: window %v outside the day", seed, l.Window)
		}
	}
	for u, ns := range outN {
		if len(ns) < 4 || len(ns) > 7 {
			t.Errorf("seed %d: machine %d out-degree %d outside [4,7]", seed, u, len(ns))
		}
	}
	for key, phys := range physPairs {
		if len(phys) > 2 {
			t.Errorf("seed %d: pair %v has %d physical links (max 2)", seed, key, len(phys))
		}
	}
}

func TestGeneratedItemProperties(t *testing.T) {
	s := mustGenerate(t, Default(), 42)
	for _, it := range s.Items {
		if len(it.Sources) < 1 || len(it.Sources) > 5 {
			t.Errorf("item %d: %d sources", it.ID, len(it.Sources))
		}
		if len(it.Requests) < 1 || len(it.Requests) > 5 {
			t.Errorf("item %d: %d requests", it.ID, len(it.Requests))
		}
		if it.SizeBytes < 10<<10 || it.SizeBytes > 100<<20 {
			t.Errorf("item %d: size %d out of range", it.ID, it.SizeBytes)
		}
		earliest := simtime.Never
		for _, s := range it.Sources {
			earliest = min(earliest, s.Available)
		}
		if earliest > simtime.At(time.Hour) {
			t.Errorf("item %d: earliest availability %v past 60m", it.ID, earliest)
		}
		for k, rq := range it.Requests {
			delta := rq.Deadline.Sub(earliest)
			if delta < 15*time.Minute || delta > time.Hour {
				t.Errorf("item %d request %d: deadline offset %v outside [15m,60m]", it.ID, k, delta)
			}
			if rq.Priority < 0 || rq.Priority >= model.NumPriorities {
				t.Errorf("item %d request %d: priority %v", it.ID, k, rq.Priority)
			}
		}
	}
}

func TestVirtualLinksOfOnePhysicalLinkDisjoint(t *testing.T) {
	s := mustGenerate(t, Default(), 7)
	byPhys := make(map[int][]simtime.Interval)
	for _, l := range s.Network.Links {
		byPhys[l.Physical] = append(byPhys[l.Physical], l.Window)
	}
	for phys, windows := range byPhys {
		for i := 0; i < len(windows); i++ {
			for j := i + 1; j < len(windows); j++ {
				if windows[i].Overlaps(windows[j]) {
					t.Errorf("physical link %d: windows %v and %v overlap", phys, windows[i], windows[j])
				}
			}
		}
		// All windows of one physical link share a duration (§5.3).
		for _, w := range windows[1:] {
			if w.Length() != windows[0].Length() {
				t.Errorf("physical link %d: mixed window durations %v vs %v", phys, w.Length(), windows[0].Length())
			}
		}
	}
}

func TestGenerateWithLatencyAndSerial(t *testing.T) {
	p := Default()
	p.Latency = DurRange{Min: time.Millisecond, Max: 20 * time.Millisecond}
	p.SerialTransfers = true
	sc := mustGenerate(t, p, 13)
	if !sc.SerialTransfers {
		t.Error("SerialTransfers not propagated")
	}
	for _, l := range sc.Network.Links {
		if l.Latency < time.Millisecond || l.Latency > 20*time.Millisecond {
			t.Fatalf("link %d latency %v out of range", l.ID, l.Latency)
		}
	}
	// Latency lengthens transfers.
	l := sc.Network.Link(0)
	base := l.TransferDuration(0)
	if base != l.Latency {
		t.Errorf("zero-size transfer should cost exactly the latency: %v vs %v", base, l.Latency)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustGenerate(t, Default(), 99)
	b := mustGenerate(t, Default(), 99)
	if a.Network.NumMachines() != b.Network.NumMachines() ||
		len(a.Network.Links) != len(b.Network.Links) ||
		len(a.Items) != len(b.Items) {
		t.Fatal("same seed produced structurally different scenarios")
	}
	for i := range a.Network.Links {
		if a.Network.Links[i] != b.Network.Links[i] {
			t.Fatalf("link %d differs between same-seed runs", i)
		}
	}
	c := mustGenerate(t, Default(), 100)
	if len(a.Items) == len(c.Items) && a.Network.NumMachines() == c.Network.NumMachines() &&
		len(a.Network.Links) == len(c.Network.Links) {
		// Extremely unlikely for all three to coincide; treat as suspicious.
		same := true
		for i := range a.Network.Links {
			if a.Network.Links[i] != c.Network.Links[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical networks")
		}
	}
}

func TestGenerateRejectsBadParams(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(p *Params)
	}{
		{"too few machines", func(p *Params) { p.Machines = IntRange{Min: 1, Max: 1} }},
		{"zero physical per pair", func(p *Params) { p.MaxPhysicalPerPair = 0 }},
		{"zero bandwidth", func(p *Params) { p.BandwidthBPS = Int64Range{} }},
		{"no window durations", func(p *Params) { p.WindowDurations = nil }},
		{"no percents", func(p *Params) { p.AvailablePercents = nil }},
		{"zero day", func(p *Params) { p.Day = 0 }},
		{"zero item size", func(p *Params) { p.SizeBytes = Int64Range{} }},
		{"zero priorities", func(p *Params) { p.Priorities = 0 }},
		{"zero sources", func(p *Params) { p.SourcesPerItem = IntRange{} }},
		{"window longer than day", func(p *Params) { p.WindowDurations = []time.Duration{48 * time.Hour} }},
		{"bad percent", func(p *Params) { p.AvailablePercents = []int{150} }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p := Default()
			tc.mutate(&p)
			if _, err := Generate(p, 1); err == nil {
				t.Error("Generate should have failed")
			}
		})
	}
}

func TestWindowsCoverRequestedPercent(t *testing.T) {
	p := Default()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		windows := generateWindows(p, rng)
		if len(windows) == 0 {
			t.Fatal("no windows generated")
		}
		var total time.Duration
		last := simtime.Instant(-1)
		for _, w := range windows {
			if w.Start < last {
				t.Fatalf("windows out of order or overlapping: %v", windows)
			}
			last = w.End
			total += w.Length()
			if w.End > simtime.At(p.Day) {
				t.Fatalf("window %v extends past the day", w)
			}
		}
		// Coverage is n*dur where n = floor(pct*day/dur): at most the drawn
		// percent and at least half the day less one window (pct >= 50).
		if total > p.Day {
			t.Fatalf("total window time %v exceeds the day", total)
		}
		if total < p.Day/2-4*time.Hour {
			t.Fatalf("total window time %v implausibly small", total)
		}
	}
}

func TestSplitDuration(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 5, 10} {
		parts := splitDuration(rng, time.Hour, n)
		if len(parts) != n {
			t.Fatalf("n=%d: got %d parts", n, len(parts))
		}
		var sum time.Duration
		for _, p := range parts {
			if p < 0 {
				t.Fatalf("negative part %v", p)
			}
			sum += p
		}
		if sum != time.Hour {
			t.Fatalf("n=%d: parts sum to %v, want 1h", n, sum)
		}
	}
	parts := splitDuration(rng, 0, 3)
	for _, p := range parts {
		if p != 0 {
			t.Fatal("zero total should yield zero parts")
		}
	}
	if got := splitDuration(rng, time.Hour, 0); len(got) != 0 {
		t.Fatal("n=0 should yield empty slice")
	}
}

func TestRangeDraws(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		if v := (IntRange{Min: 3, Max: 7}).draw(rng); v < 3 || v > 7 {
			t.Fatalf("IntRange draw %d out of range", v)
		}
		if v := (Int64Range{Min: 10, Max: 20}).draw(rng); v < 10 || v > 20 {
			t.Fatalf("Int64Range draw %d out of range", v)
		}
		if v := (DurRange{Min: time.Second, Max: time.Minute}).draw(rng); v < time.Second || v > time.Minute {
			t.Fatalf("DurRange draw %v out of range", v)
		}
	}
	if v := (IntRange{Min: 5, Max: 5}).draw(rng); v != 5 {
		t.Fatalf("degenerate IntRange: got %d", v)
	}
	if v := (DurRange{}).draw(rng); v != 0 {
		t.Fatalf("zero DurRange: got %v", v)
	}
}
