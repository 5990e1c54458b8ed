package explain

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"datastaging/internal/core"
	"datastaging/internal/model"
	"datastaging/internal/obs"
	"datastaging/internal/scenario"
	"datastaging/internal/simtime"
	"datastaging/internal/state"
	"datastaging/internal/testnet"
)

func TestDiagnoseSatisfied(t *testing.T) {
	sc := testnet.Line(3, 1024, 8000, time.Hour)
	cfg := core.Config{Heuristic: core.PartialPath, Criterion: core.C4,
		EU: core.EUFromLog10(0), Weights: model.Weights1x10x100}
	res, err := core.Schedule(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Diagnose(sc, res.Transfers, model.RequestID{Item: 0, Index: 0})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Satisfied {
		t.Fatalf("verdict: got %v", rep.Verdict)
	}
	if rep.Arrival == 0 || rep.Arrival.After(rep.Deadline) {
		t.Errorf("arrival: %v", rep.Arrival)
	}
	out := rep.Format(sc)
	if !strings.Contains(out, "satisfied") || !strings.Contains(out, "delivered at") {
		t.Errorf("format:\n%s", out)
	}
}

func TestDiagnoseInfeasibleAlone(t *testing.T) {
	// Link too slow for the deadline even on an idle network.
	b := testnet.NewBuilder()
	ms := b.Machines(2, 1<<30)
	b.Link(ms[0], ms[1], 0, 24*time.Hour, 8) // 1 KB ≈ 17 m
	b.Link(ms[1], ms[0], 0, 24*time.Hour, 8000)
	b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[1], time.Minute, model.High)})
	sc := b.Build("slow")
	rep, err := Diagnose(sc, nil, model.RequestID{Item: 0, Index: 0})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != InfeasibleAlone {
		t.Fatalf("verdict: got %v", rep.Verdict)
	}
	if !strings.Contains(rep.Format(sc), "past the deadline") {
		t.Errorf("format:\n%s", rep.Format(sc))
	}

	// Unreachable outright: window shorter than the transfer.
	b2 := testnet.NewBuilder()
	ns := b2.Machines(2, 1<<30)
	b2.Link(ns[0], ns[1], 0, time.Second, 8)
	b2.Link(ns[1], ns[0], 0, 24*time.Hour, 8000)
	b2.Item(1024, []model.Source{testnet.Src(ns[0], 0)},
		[]model.Request{testnet.Req(ns[1], time.Hour, model.High)})
	sc2 := b2.Build("unreach")
	rep2, err := Diagnose(sc2, nil, model.RequestID{Item: 0, Index: 0})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Verdict != InfeasibleAlone || rep2.IdealArrival != simtime.Never {
		t.Fatalf("verdict: %v arrival %v", rep2.Verdict, rep2.IdealArrival)
	}
	if !strings.Contains(rep2.Format(sc2), "unreachable") {
		t.Errorf("format:\n%s", rep2.Format(sc2))
	}
}

func TestDiagnoseStarvedNamesBlockers(t *testing.T) {
	sc, low, high := contendedPair()
	cfg := core.Config{Heuristic: core.PartialPath, Criterion: core.C4,
		EU: core.EUPriorityOnly, Weights: model.Weights1x10x100}
	res, err := core.Schedule(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Diagnose(sc, res.Transfers, model.RequestID{Item: low, Index: 0})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Starved {
		t.Fatalf("low-priority verdict: got %v", rep.Verdict)
	}
	if len(rep.Blockers) == 0 {
		t.Fatal("starved request should name its blockers")
	}
	if rep.Blockers[0].Item != high {
		t.Errorf("blocker: got item %d, want the high-priority item %d", rep.Blockers[0].Item, high)
	}
	out := rep.Format(sc)
	if !strings.Contains(out, "blocked by item") {
		t.Errorf("format:\n%s", out)
	}
}

// contendedPair: two items racing for one serial link where only the first
// transfer meets the shared deadline.
func contendedPair() (sc *scenario.Scenario, low, high model.ItemID) {
	b := testnet.NewBuilder()
	ms := b.Machines(2, 1<<30)
	b.Link(ms[0], ms[1], 0, 24*time.Hour, 8000)
	b.Link(ms[1], ms[0], 0, 24*time.Hour, 8000)
	low = b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[1], 2*time.Second, model.Low)})
	high = b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[1], 2*time.Second, model.High)})
	return b.Build("contended"), low, high
}

func TestDiagnoseRejectsBadIDs(t *testing.T) {
	sc := testnet.Line(2, 1024, 8000, time.Hour)
	if _, err := Diagnose(sc, nil, model.RequestID{Item: 9}); err == nil {
		t.Error("unknown item accepted")
	}
	if _, err := Diagnose(sc, nil, model.RequestID{Item: 0, Index: 5}); err == nil {
		t.Error("unknown request index accepted")
	}
}

func TestVerdictString(t *testing.T) {
	for _, tc := range []struct {
		v    Verdict
		want string
	}{
		{Satisfied, "satisfied"},
		{InfeasibleAlone, "infeasible-even-alone"},
		{Starved, "starved-by-contention"},
		{DeliveredLate, "delivered-late"},
		{Verdict(9), "verdict(9)"},
	} {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("got %q want %q", got, tc.want)
		}
	}
}

// TestDiagnoserFollowsGrowingScenario: one Diagnoser kept across calls, over
// a scenario that gains an item between them (the admission service's use),
// must return exactly the reports a fresh idle world per call does, for
// every verdict class — and start over when handed another scenario.
func TestDiagnoserFollowsGrowingScenario(t *testing.T) {
	b := testnet.NewBuilder()
	ms := b.Machines(2, 1<<30)
	link := b.Link(ms[0], ms[1], 0, 24*time.Hour, 8000) // 1 KB ≈ 1.02 s
	b.Link(ms[1], ms[0], 0, 24*time.Hour, 8000)
	for _, rq := range []model.Request{
		testnet.Req(ms[1], 2*time.Second, model.High),        // delivered first
		testnet.Req(ms[1], 2*time.Second, model.Low),         // displaced by it
		testnet.Req(ms[1], 500*time.Millisecond, model.Low),  // too tight even alone
		testnet.Req(ms[1], 1500*time.Millisecond, model.Low), // delivered second, late
	} {
		b.Item(1024, []model.Source{testnet.Src(ms[0], 0)}, []model.Request{rq})
	}
	full := b.Build("four-verdicts")
	st := state.New(full)
	first, err := st.Commit(0, link, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit(3, link, first.Arrival); err != nil {
		t.Fatal(err)
	}

	var d Diagnoser
	sc := *full
	seen := map[Verdict]bool{}
	for n := 1; n <= len(full.Items); n++ {
		sc.Items = full.Items[:n]
		var committed []state.Transfer
		for _, tr := range st.Transfers() {
			if int(tr.Item) < n {
				committed = append(committed, tr)
			}
		}
		for _, id := range sc.Requests() {
			got, err := d.Diagnose(&sc, committed, id)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Diagnose(&sc, committed, id)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%d items, %v:\n got %+v\nwant %+v", n, id, got, want)
			}
			seen[got.Verdict] = true
		}
	}
	for _, v := range []Verdict{Satisfied, Starved, InfeasibleAlone, DeliveredLate} {
		if !seen[v] {
			t.Errorf("fixture never produced %v", v)
		}
	}

	other := testnet.Line(3, 1024, 8000, time.Hour)
	id := model.RequestID{Item: 0, Index: 0}
	got, err := d.Diagnose(other, nil, id)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := Diagnose(other, nil, id); !reflect.DeepEqual(got, want) {
		t.Errorf("after switching scenarios:\n got %+v\nwant %+v", got, want)
	}
}

// TestDiagnoserCounts: SetObs counts each diagnosis, the Diagnoser's own
// walks (the same pops and relaxations its Scratch saw) and every
// committed-transfer record the delivery check and the blockers scan read;
// a request that does not exist counts nothing.
func TestDiagnoserCounts(t *testing.T) {
	sc, low, high := contendedPair()
	res, err := core.Schedule(sc, core.Config{Heuristic: core.PartialPath, Criterion: core.C4,
		EU: core.EUPriorityOnly, Weights: model.Weights1x10x100})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	var d Diagnoser
	d.SetObs(o)
	hi, err := d.Diagnose(sc, res.Transfers, model.RequestID{Item: high})
	if err != nil {
		t.Fatal(err)
	}
	lo, err := d.Diagnose(sc, res.Transfers, model.RequestID{Item: low})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Diagnose(sc, res.Transfers, model.RequestID{Item: 9}); err == nil {
		t.Fatal("unknown item accepted")
	}
	if hi.Verdict != Satisfied || lo.Verdict != Starved {
		t.Fatalf("verdicts %v, %v: fixture changed", hi.Verdict, lo.Verdict)
	}
	delivered := 0
	for i, tr := range res.Transfers {
		if tr.Item == high {
			delivered = i + 1
			break
		}
	}
	n := len(res.Transfers)
	c := o.Snapshot().Counters
	for name, want := range map[string]int64{
		"explain.diagnoses_total":         2,
		"explain.pops_total":              int64(d.scratch.Stats().Pops),
		"explain.relaxations_total":       int64(d.scratch.Stats().Relaxations),
		"explain.transfers_scanned_total": int64(delivered + n + len(lo.IdealPath)*n),
	} {
		if c[name] != want || want == 0 {
			t.Errorf("%s = %d, want %d (nonzero)", name, c[name], want)
		}
	}
}
