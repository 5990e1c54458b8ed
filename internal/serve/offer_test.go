package serve

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"datastaging/internal/obs"
	"datastaging/internal/testnet"
)

// newOfferEngine: two machines, one generous always-open link.
func newOfferEngine(t *testing.T) *Engine {
	t.Helper()
	b := testnet.NewBuilder()
	ms := b.Machines(2, 1<<30)
	b.Link(ms[0], ms[1], 0, 24*time.Hour, 1e6)
	eng, err := New(b.Build("offer"), Options{
		Config:       cfgC4(obs.New()),
		VirtualClock: true,
		QueueCap:     16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestProposeCommit: a feasible offer reports a completion instant;
// committing it registers a live, decided ticket, planned at the engine's
// instant and backed by the committed schedule, whose objective rose by the
// request's weight.
func TestProposeCommit(t *testing.T) {
	eng := newOfferEngine(t)
	defer eng.Drain(context.Background())

	p, err := eng.Propose(lineSubmission(2*time.Hour, 2))
	if err != nil {
		t.Fatal(err)
	}
	cmp, ok := p.Completion(0)
	if !ok || cmp <= 0 {
		t.Fatalf("Completion(0) = %v, %v", cmp, ok)
	}

	tk := p.Commit()
	select {
	case <-tk.Done():
	default:
		t.Fatal("committed ticket not decided")
	}
	v := tk.View()
	if v.Status != StatusAdmitted || v.Requests[0].Completion.Instant() != cmp {
		t.Fatalf("committed view %+v, want admitted at %v", v, cmp)
	}
	if !strings.HasPrefix(v.ID, "r-") || v.Epoch.Instant() != eng.Now() {
		t.Fatalf("committed ticket %q planned at %v, engine now %v", v.ID, v.Epoch.Instant(), eng.Now())
	}
	sv := eng.Schedule()
	if sv.Satisfied != 1 || sv.Items != 1 {
		t.Fatalf("schedule after commit: %+v", sv)
	}
	if w := cfgC4(nil).Weights.Of(2); sv.WeightedValue != w {
		t.Fatalf("objective after commit %v, want the priority-2 weight %v", sv.WeightedValue, w)
	}
	if _, ok := eng.TicketView(tk.ID()); !ok {
		t.Fatal("committed ticket not registered")
	}
}

// TestProposeAbort: aborting an offer restores the world bit-identically —
// same transfers, same objective, same item count — and the engine keeps
// serving; an unsatisfiable offer reports no completion so the coordinator
// can abort it.
func TestProposeAbort(t *testing.T) {
	eng := newOfferEngine(t)
	defer eng.Drain(context.Background())

	// Commit a baseline so abort has real state to preserve.
	p0, err := eng.Propose(lineSubmission(2*time.Hour, 1))
	if err != nil {
		t.Fatal(err)
	}
	p0.Commit()
	before := eng.Schedule()

	p, err := eng.Propose(lineSubmission(3*time.Hour, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Completion(0); !ok {
		t.Fatal("second offer not admitted")
	}
	p.Abort()
	after := eng.Schedule()
	if !reflect.DeepEqual(before.Transfers, after.Transfers) ||
		before.WeightedValue != after.WeightedValue || before.Items != after.Items {
		t.Fatalf("abort did not restore the world: before %+v after %+v", before, after)
	}

	// Impossible deadline: the offer plans, reports no admission, aborts.
	pi, err := eng.Propose(lineSubmission(time.Nanosecond, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pi.Completion(0); ok {
		t.Fatal("impossible offer has a completion")
	}
	pi.Abort()

	// The engine still serves the normal path after aborted offers.
	tk, err := eng.Submit(lineSubmission(2*time.Hour, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	<-tk.Done()
	if tk.View().Status != StatusAdmitted {
		t.Fatalf("post-abort submit: %+v", tk.View())
	}

	// Validation errors and draining engines refuse offers up front.
	if _, err := eng.Propose(Submission{}); err == nil {
		t.Fatal("empty submission proposed")
	}
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Propose(lineSubmission(time.Hour, 0)); !errors.Is(err, ErrDraining) {
		t.Fatalf("propose on drained engine: %v", err)
	}
}
