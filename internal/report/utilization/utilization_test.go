package utilization

import (
	"testing"
	"time"

	"datastaging/internal/core"
	"datastaging/internal/model"
	"datastaging/internal/obs"
	"datastaging/internal/scenario"
	"datastaging/internal/state"
	"datastaging/internal/testnet"
)

func schedule(t *testing.T, sc *scenario.Scenario) *core.Result {
	t.Helper()
	res, err := core.Schedule(sc, core.Config{
		Heuristic: core.PartialPath,
		Criterion: core.C4,
		EU:        core.EUFromLog10(0),
		Weights:   model.Weights1x5x10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// contended builds a single-link scenario where two items compete for one
// narrow window and only one can make its deadline: item0 (high priority)
// wins, item1's request starves.
func contended(t *testing.T) *scenario.Scenario {
	t.Helper()
	b := testnet.NewBuilder()
	ms := b.Machines(2, 1<<30)
	// 1 MB at 1 kbps ≈ 8389 s ≈ 2.33 h per transfer; the 3 h window fits one.
	b.Link(ms[0], ms[1], 0, 3*time.Hour, testnet.KBPS(1))
	b.Item(1<<20,
		[]model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[1], 3*time.Hour, model.High)})
	b.Item(1<<20,
		[]model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[1], 3*time.Hour, model.Low)})
	return b.Build("contended")
}

func TestProfileInvariants(t *testing.T) {
	for name, sc := range map[string]*scenario.Scenario{
		"line":      testnet.Line(4, 1<<20, testnet.KBPS(1000), time.Hour),
		"diamond":   testnet.Diamond(1<<20, time.Hour),
		"contended": contended(t),
	} {
		t.Run(name, func(t *testing.T) {
			res := schedule(t, sc)
			if len(res.Transfers) == 0 {
				t.Fatal("fixture scheduled nothing; invariants would be vacuous")
			}
			p := Compute(sc, res.Transfers)

			// Per-link utilization never exceeds the availability window.
			var linkSum time.Duration
			for _, lp := range p.Links {
				if lp.Busy > lp.Window {
					t.Errorf("L%d busy %v exceeds window %v", lp.Link, lp.Busy, lp.Window)
				}
				if lp.BusyFraction < 0 || lp.BusyFraction > 1 {
					t.Errorf("L%d busy fraction %v outside [0,1]", lp.Link, lp.BusyFraction)
				}
				linkSum += lp.Busy
			}

			// Summed busy time equals the sum of committed transfer durations.
			var want time.Duration
			for _, tr := range res.Transfers {
				want += tr.Duration
			}
			if linkSum != want || p.TotalBusy != want {
				t.Errorf("busy sum %v / total %v, want %v (sum of transfer durations)",
					linkSum, p.TotalBusy, want)
			}

			// Cross-check each link's busy time against the resource
			// timeline a replay of the schedule produces.
			st := state.New(sc)
			for _, tr := range res.Transfers {
				if _, err := st.Commit(tr.Item, tr.Link, tr.Start); err != nil {
					t.Fatalf("replay: %v", err)
				}
			}
			for _, lp := range p.Links {
				if got := st.LinkTimeline(lp.Link).BusyTime(); got != lp.Busy {
					t.Errorf("L%d profile busy %v != replayed timeline busy %v", lp.Link, lp.Busy, got)
				}
			}

			if p.BottleneckLink < 0 || p.MaxLinkBusyFraction < p.MeanLinkBusyFraction {
				t.Errorf("summary inconsistent: bottleneck %d max %v mean %v",
					p.BottleneckLink, p.MaxLinkBusyFraction, p.MeanLinkBusyFraction)
			}
		})
	}
}

func TestPortProfilesSerial(t *testing.T) {
	sc := testnet.Line(3, 1<<20, testnet.KBPS(1000), time.Hour)
	sc.SerialTransfers = true
	res := schedule(t, sc)
	p := Compute(sc, res.Transfers)
	if len(p.Ports) == 0 {
		t.Fatal("serialized scenario produced no port profiles")
	}
	var portBusy, linkBusy time.Duration
	for _, pp := range p.Ports {
		portBusy += pp.Busy
		if pp.BusyFraction < 0 || pp.BusyFraction > 1 {
			t.Errorf("port m%d/%v busy fraction %v outside [0,1]", pp.Machine, pp.Dir, pp.BusyFraction)
		}
	}
	for _, lp := range p.Links {
		linkBusy += lp.Busy
	}
	// Every transfer occupies exactly one send and one receive port.
	if portBusy != 2*linkBusy {
		t.Errorf("port busy %v != 2× link busy %v", portBusy, linkBusy)
	}

	// Cross-check each port's busy time against the port timelines a
	// replay of the schedule produces.
	st := state.New(sc)
	for _, tr := range res.Transfers {
		if _, err := st.Commit(tr.Item, tr.Link, tr.Start); err != nil {
			t.Fatalf("replay: %v", err)
		}
	}
	for _, pp := range p.Ports {
		tl := st.SendPortTimeline(pp.Machine)
		if pp.Dir == Recv {
			tl = st.RecvPortTimeline(pp.Machine)
		}
		if tl == nil {
			t.Fatalf("port m%d/%v: nil timeline on serialized state", pp.Machine, pp.Dir)
		}
		if got := tl.BusyTime(); got != pp.Busy {
			t.Errorf("port m%d/%v profile busy %v != replayed timeline busy %v", pp.Machine, pp.Dir, pp.Busy, got)
		}
	}

	// Non-serialized scenarios have no port profiles.
	if p2 := Compute(testnet.Line(3, 1<<20, testnet.KBPS(1000), time.Hour), res.Transfers); len(p2.Ports) != 0 {
		t.Error("non-serialized profile has port entries")
	}
}

func TestStorageProfiles(t *testing.T) {
	sc := testnet.Line(3, 1<<20, testnet.KBPS(1000), time.Hour)
	res := schedule(t, sc)
	p := Compute(sc, res.Transfers)
	// The line fixture stages through m1 and delivers to m2: both must
	// show a peak of the item size.
	if len(p.Storage) != 2 {
		t.Fatalf("storage profiles: %+v", p.Storage)
	}
	for _, sp := range p.Storage {
		if sp.PeakBytes != 1<<20 {
			t.Errorf("m%d peak %d, want %d", sp.Machine, sp.PeakBytes, 1<<20)
		}
		if sp.PeakFraction <= 0 || sp.PeakFraction > 1 {
			t.Errorf("m%d peak fraction %v", sp.Machine, sp.PeakFraction)
		}
	}
}

// TestStoragePeakOverlappingHolds stages two items through machine 1 with
// overlapping holds: the relay's peak is both copies at once, and the
// destination keeps both for good.
func TestStoragePeakOverlappingHolds(t *testing.T) {
	b := testnet.NewBuilder()
	ms := b.Machines(3, 1<<20)
	day := 24 * time.Hour
	b.Link(ms[0], ms[1], 0, day, 80000)
	b.Link(ms[1], ms[2], 0, day, 80000)
	b.Link(ms[2], ms[0], 0, day, 80000)
	itemA := b.Item(1000, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[2], 30*time.Minute, model.High)})
	itemB := b.Item(2000, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[2], 30*time.Minute, model.Low)})
	sc := b.Build("peak")
	st := state.New(sc)
	// Serialize the two items' first hops on the shared link.
	start := st.Holders(itemA)[0].Avail
	for _, item := range []model.ItemID{itemA, itemB} {
		tr, err := st.Commit(item, 0, start)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Commit(item, 1, tr.Arrival); err != nil {
			t.Fatal(err)
		}
		start = tr.Arrival
	}
	p := Compute(sc, st.Transfers())
	if len(p.Storage) != 2 {
		t.Fatalf("storage profiles: %+v", p.Storage)
	}
	for _, sp := range p.Storage {
		if sp.Machine != 1 && sp.Machine != 2 {
			t.Errorf("source machine m%d has a storage profile", sp.Machine)
		}
		if sp.PeakBytes != 3000 {
			t.Errorf("m%d peak: got %d, want 3000", sp.Machine, sp.PeakBytes)
		}
	}
}

func TestAttributeBlamesSaturatedLink(t *testing.T) {
	sc := contended(t)
	res := schedule(t, sc)
	if len(res.Satisfied) != 1 {
		t.Fatalf("fixture should satisfy exactly one request, got %d", len(res.Satisfied))
	}
	a, err := Attribute(sc, res.Transfers, res.Satisfied)
	if err != nil {
		t.Fatal(err)
	}
	if a.Unsatisfied != 1 || a.Starved != 1 {
		t.Fatalf("attribution = %+v, want 1 starved request", a)
	}
	if len(a.Bottlenecks) != 1 {
		t.Fatalf("bottlenecks = %+v, want the single contended link", a.Bottlenecks)
	}
	b := a.Bottlenecks[0]
	if b.Link != 0 || b.Blamed != 1 || b.BlockedTime <= 0 {
		t.Errorf("bottleneck = %+v", b)
	}
	if len(b.Requests) != 1 || b.Requests[0].Item != 1 {
		t.Errorf("blamed requests = %v, want item 1's request", b.Requests)
	}
	if s := a.Summary(); s == "" || s == "all requests satisfied" {
		t.Errorf("summary = %q", s)
	}
	headers, rows := a.Rows()
	if len(headers) == 0 || len(rows) != 1 {
		t.Errorf("rows = %v", rows)
	}
}

func TestAttributeAllSatisfied(t *testing.T) {
	sc := testnet.Line(3, 1<<20, testnet.KBPS(1000), time.Hour)
	res := schedule(t, sc)
	a, err := Attribute(sc, res.Transfers, res.Satisfied)
	if err != nil {
		t.Fatal(err)
	}
	if a.Unsatisfied != 0 || len(a.Bottlenecks) != 0 {
		t.Errorf("attribution = %+v, want empty", a)
	}
	if a.Summary() != "all requests satisfied" {
		t.Errorf("summary = %q", a.Summary())
	}
}

func TestExportGauges(t *testing.T) {
	sc := testnet.Line(3, 1<<20, testnet.KBPS(1000), time.Hour)
	res := schedule(t, sc)
	p := Compute(sc, res.Transfers)
	o := obs.New()
	p.Export(o)
	snap := o.Snapshot()
	if got := snap.Gauges["util.total_link_busy_seconds"]; got != p.TotalBusy.Seconds() {
		t.Errorf("util.total_link_busy_seconds = %v, want %v", got, p.TotalBusy.Seconds())
	}
	if got := snap.Gauges["util.max_link_busy_fraction"]; got != p.MaxLinkBusyFraction {
		t.Errorf("util.max_link_busy_fraction = %v, want %v", got, p.MaxLinkBusyFraction)
	}
	if got := snap.Gauges["util.bottleneck_link"]; got != float64(p.BottleneckLink) {
		t.Errorf("util.bottleneck_link = %v, want %v", got, p.BottleneckLink)
	}
	// Nil obs must not panic.
	p.Export(nil)

	// Table renderers produce one row per entry.
	if _, rows := p.LinkRows(); len(rows) != len(p.Links) {
		t.Errorf("LinkRows = %d rows, want %d", len(rows), len(p.Links))
	}
	if _, rows := p.StorageRows(); len(rows) != len(p.Storage) {
		t.Errorf("StorageRows = %d rows, want %d", len(rows), len(p.Storage))
	}
	if _, rows := p.PortRows(); len(rows) != 0 {
		t.Errorf("PortRows on non-serial profile = %d rows", len(rows))
	}
}
