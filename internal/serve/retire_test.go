package serve

import (
	"testing"
	"time"

	"datastaging/internal/model"
	"datastaging/internal/obs"
	"datastaging/internal/simtime"
	"datastaging/internal/testnet"
)

// TestBoundRetiredTicketSettlesAtOnce: the destination stores exactly one
// item, and the urgent submission takes that room forever. The other one's
// forest is capacity-blocked, which used to keep its ticket on the unsettled
// list (re-planned and re-settled on every later epoch) for the life of the
// engine; the planner's optimistic bound retires it in its own epoch, and
// the verdict still carries the blame computed against the idle world.
func TestBoundRetiredTicketSettlesAtOnce(t *testing.T) {
	const size = 1 << 20
	b := testnet.NewBuilder()
	a, dst, roomy := b.Machine(1<<30), b.Machine(size), b.Machine(1<<30)
	link := b.Link(a, dst, 0, 24*time.Hour, testnet.KBPS(1000))
	b.Link(a, roomy, 0, 24*time.Hour, testnet.KBPS(1000))
	o := obs.New()
	eng, err := New(b.Build("full-forever"), Options{
		Config:       cfgC4(o),
		VirtualClock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(to model.MachineID, deadline time.Duration, p model.Priority) {
		t.Helper()
		if _, err := eng.Submit(Submission{
			SizeBytes: size,
			Sources:   []SourceSpec{{Machine: int(a)}},
			Requests:  []RequestSpec{{Machine: int(to), Deadline: Instant(simtime.At(deadline)), Priority: int(p)}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	submit(dst, time.Hour, model.High)
	submit(dst, 2*time.Hour, model.Low)
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}

	if got := len(eng.unsettled); got != 0 {
		t.Errorf("%d tickets still unsettled after the epoch that decided them", got)
	}
	if v, _ := eng.TicketView("r-0"); v.Status != StatusAdmitted {
		t.Fatalf("urgent ticket %q, want admitted", v.Status)
	}
	v, _ := eng.TicketView("r-1")
	if v.Status != StatusRejected {
		t.Fatalf("displaced ticket %q, want rejected", v.Status)
	}
	if rv := v.Requests[0]; rv.Reason != "starved-by-contention" || rv.BlamedLink != int(link) {
		t.Errorf("verdict blames %q on link %d, want starved-by-contention on link %d",
			rv.Reason, rv.BlamedLink, link)
	}
	if n := o.Counter("core.items_retired_total").Value(); n != 2 {
		t.Errorf("core.items_retired_total = %d, want 2 (one delivered, one out of reach)", n)
	}

	// A later epoch at a later floor owes the retired backlog nothing.
	runs := o.Counter("core.dijkstra_runs_total").Value()
	if err := eng.Advance(simtime.At(time.Minute)); err != nil {
		t.Fatal(err)
	}
	submit(roomy, time.Hour, model.Low)
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, _ := eng.TicketView("r-2"); v.Status != StatusAdmitted {
		t.Fatalf("unobstructed ticket %q, want admitted", v.Status)
	}
	if n := o.Counter("core.dijkstra_runs_total").Value() - runs; n != 1 {
		t.Errorf("%d Dijkstra runs in the next epoch, want 1 (the arrival's own forest)", n)
	}
	if g := o.Gauge("core.live_items").Value(); g != 0 {
		t.Errorf("core.live_items = %v after everything was decided for good", g)
	}
}
