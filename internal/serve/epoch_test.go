package serve

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"datastaging/internal/gen"
	"datastaging/internal/model"
	"datastaging/internal/obs"
	"datastaging/internal/obs/lifecycle"
	"datastaging/internal/scenario"
	"datastaging/internal/simtime"
	"datastaging/internal/validator"
	"datastaging/internal/workload"
)

// offerStream is the shared oversubscribed arrival stream of the epoch-step
// tests: the cohort builtin at four times its rates over a six-machine
// generated network — a few hundred arrivals of which the network rejects
// almost half and late-admits a few, so the unsettled pass has work to do.
func offerStream(t *testing.T) (*scenario.Scenario, []workload.Arrival) {
	t.Helper()
	p := gen.Default()
	p.Machines = gen.IntRange{Min: 6, Max: 6}
	base, err := gen.NetworkOnly(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	var spec workload.Spec
	for _, s := range workload.Builtins() {
		if s.Name == "cohort" {
			spec = s
		}
	}
	spec.Phases = append([]workload.Phase(nil), spec.Phases...)
	for i := range spec.Phases {
		spec.Phases[i].PerHour *= 4
	}
	arrivals, err := spec.Compile(base.Network.NumMachines())
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) < 200 {
		t.Fatalf("stream has %d arrivals, want at least 200", len(arrivals))
	}
	return base, arrivals
}

// streamEngine is one audited virtual-clock engine over the stream's network.
type streamEngine struct {
	*Engine
	o    *obs.Obs
	sink bytes.Buffer
}

func newStreamEngine(t *testing.T, base *scenario.Scenario) *streamEngine {
	t.Helper()
	se := &streamEngine{o: obs.New()}
	empty := *base
	eng, err := New(&empty, Options{
		Config:       cfgC4(se.o),
		VirtualClock: true,
		Audit:        lifecycle.New(lifecycle.Options{Obs: se.o, Sink: &se.sink}),
	})
	if err != nil {
		t.Fatal(err)
	}
	se.Engine = eng
	return se
}

// submitFlush decides one arrival the queued way: Submit, then a pure flush.
func (se *streamEngine) submitFlush(t *testing.T, a workload.Arrival) string {
	t.Helper()
	at := simtime.Instant(a.At)
	if err := se.Advance(at); err != nil {
		t.Fatal(err)
	}
	tk, err := se.Submit(SubmissionFromArrival(a))
	if err != nil {
		t.Fatal(err)
	}
	if err := se.Advance(at); err != nil {
		t.Fatal(err)
	}
	return tk.ID()
}

// propose opens an offer for one arrival at its instant.
func (se *streamEngine) propose(t *testing.T, a workload.Arrival) *Proposal {
	t.Helper()
	if err := se.Advance(simtime.Instant(a.At)); err != nil {
		t.Fatal(err)
	}
	p, err := se.Propose(SubmissionFromArrival(a))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestOfferEqualsFlush: an offer is an epoch left open, not a second path.
// One oversubscribed stream decided as Submit+Advance on one engine and as
// Propose+Commit on another must agree on everything observable after every
// step: each ticket's view (so a late admission caused by an offer's replan
// is settled by that offer's epoch), the schedule, the deterministic audit
// stream byte for byte, and the epoch counters.
func TestOfferEqualsFlush(t *testing.T) {
	base, arrivals := offerStream(t)
	flush, offer := newStreamEngine(t, base), newStreamEngine(t, base)

	var ids []string
	for i, a := range arrivals {
		id := flush.submitFlush(t, a)
		if got := offer.propose(t, a).Commit().ID(); got != id {
			t.Fatalf("arrival %d: offer ticket %q, flush ticket %q", i, got, id)
		}
		ids = append(ids, id)
		for _, id := range ids {
			fv, _ := flush.TicketView(id)
			ov, ok := offer.TicketView(id)
			if !ok || !reflect.DeepEqual(fv, ov) {
				t.Fatalf("after arrival %d, ticket %s:\n flush %+v\n offer %+v", i, id, fv, ov)
			}
		}
		if fs, os := flush.Schedule(), offer.Schedule(); !reflect.DeepEqual(fs, os) {
			t.Fatalf("after arrival %d schedules differ:\n flush %+v\n offer %+v", i, fs, os)
		}
	}

	if !bytes.Equal(flush.sink.Bytes(), offer.sink.Bytes()) {
		t.Error("audit streams differ between the flush and the offer path")
	}
	fm, om := flush.o.Snapshot(), offer.o.Snapshot()
	for _, name := range []string{"serve.epochs_total", "serve.admitted_total", "serve.rejected_total"} {
		if fm.Counters[name] != om.Counters[name] {
			t.Errorf("%s: flush %d, offer %d", name, fm.Counters[name], om.Counters[name])
		}
	}
	if !reflect.DeepEqual(fm.Histograms["serve.batch_size"], om.Histograms["serve.batch_size"]) {
		t.Errorf("serve.batch_size: flush %+v, offer %+v",
			fm.Histograms["serve.batch_size"], om.Histograms["serve.batch_size"])
	}

	// The stream must actually exercise what the comparison is for.
	if fm.Counters["serve.rejected_total"] == 0 {
		t.Error("stream rejected nothing: not oversubscribed")
	}
	revisions := 0
	for _, r := range offer.Audit().Records() {
		if r.Kind == lifecycle.KindRevision {
			revisions++
		}
	}
	if revisions == 0 {
		t.Error("stream late-admitted nothing: the unsettled pass went untested")
	}

	// An admit is final: every request a decision record admitted is
	// delivered by the final schedule at exactly the promised instant.
	sat, err := validator.SatisfiedSet(&flush.sc, flush.Schedule().Transfers)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range flush.Audit().Records() {
		if r.Kind != lifecycle.KindDecision {
			continue
		}
		for _, rq := range r.Requests {
			if rq.Status != string(StatusAdmitted) {
				continue
			}
			id := model.RequestID{Item: model.ItemID(rq.Item), Index: rq.Index}
			if at, ok := sat[id]; !ok || int64(at) != rq.Completion {
				t.Errorf("%s: admitted request %v promised at %d, final schedule delivers %v (%v)",
					r.Ticket, id, rq.Completion, at, ok)
			}
		}
	}
}

// TestOfferAbortRestores: the same stream with every third offer aborted and
// at once re-proposed ends in the same world as the plain flush run — same
// schedule, objective and verdicts — once ticket ids are normalised (an
// aborted offer still consumes an id).
func TestOfferAbortRestores(t *testing.T) {
	base, arrivals := offerStream(t)
	flush, offer := newStreamEngine(t, base), newStreamEngine(t, base)

	var fids, oids []string
	aborted := 0
	for i, a := range arrivals {
		fids = append(fids, flush.submitFlush(t, a))
		p := offer.propose(t, a)
		if i%3 == 2 {
			p.Abort()
			aborted++
			p = offer.propose(t, a)
		}
		oids = append(oids, p.Commit().ID())
	}
	if want := fmt.Sprintf("r-%d", len(arrivals)+aborted-1); oids[len(oids)-1] != want {
		t.Errorf("last offer ticket %q, want %q: an aborted offer keeps its id", oids[len(oids)-1], want)
	}
	for i := range arrivals {
		fv, _ := flush.TicketView(fids[i])
		ov, _ := offer.TicketView(oids[i])
		ov.ID = fv.ID
		if !reflect.DeepEqual(fv, ov) {
			t.Fatalf("arrival %d:\n flush %+v\n offer %+v", i, fv, ov)
		}
	}
	if fs, os := flush.Schedule(), offer.Schedule(); !reflect.DeepEqual(fs, os) {
		t.Errorf("schedules differ:\n flush %+v\n offer %+v", fs, os)
	}
}

// TestOfferEpochTimeline (wall clock): the coordinator's hold between
// Propose and Commit is neither queue wait nor engine work. The record's
// epoch_start and planned walls fall before the hold, decided and settled
// after it, in order; serve.epoch_seconds grows by the plan and by the
// commit or abort work but by less than the hold; an aborted offer is timed
// and not counted.
func TestOfferEpochTimeline(t *testing.T) {
	const hold = 10 * time.Millisecond
	o := obs.New()
	rec := lifecycle.New(lifecycle.Options{Obs: o})
	eng, err := New(narrowNet(), Options{Config: cfgC4(o), TimeScale: 86400, Audit: rec})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	defer eng.Drain(ctx)

	p, err := eng.Propose(lineSubmission(20*time.Hour, int(model.High)))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(hold)
	tk := p.Commit()
	trail := eng.Trail(tk.ID())
	if len(trail) != 1 {
		t.Fatalf("committed offer has %d audit records, want 1", len(trail))
	}
	wall := map[string]float64{}
	for _, h := range trail[0].Timeline {
		wall[h.Stage] = h.WallS
	}
	start, planned := wall[lifecycle.StageEpochStart], wall[lifecycle.StagePlanned]
	decided, settled := wall[lifecycle.StageDecided], wall[lifecycle.StageSettled]
	if start >= hold.Seconds() || planned >= hold.Seconds() {
		t.Errorf("epoch_start %.6fs, planned %.6fs: the %v hold was booked before the plan", start, planned, hold)
	}
	if !(planned > start && decided >= hold.Seconds() && settled >= decided) {
		t.Errorf("walls not ordered around the hold: epoch_start %.6f planned %.6f decided %.6f settled %.6f",
			start, planned, decided, settled)
	}
	committed := eng.epochTimer.Total()
	if committed <= 0 || committed >= hold {
		t.Errorf("serve.epoch_seconds after propose+commit = %v, want within (0, %v)", committed, hold)
	}

	p, err = eng.Propose(lineSubmission(20*time.Hour, int(model.High)))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(hold)
	p.Abort()
	if d := eng.epochTimer.Total() - committed; d <= 0 || d >= hold {
		t.Errorf("serve.epoch_seconds grew by %v over propose+abort, want within (0, %v)", d, hold)
	}
	if n := o.Counter("serve.epochs_total").Value(); n != 1 {
		t.Errorf("serve.epochs_total = %d after one commit and one abort, want 1", n)
	}
}
