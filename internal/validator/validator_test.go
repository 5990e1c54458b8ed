package validator

import (
	"errors"
	"strings"
	"testing"
	"time"

	"datastaging/internal/core"
	"datastaging/internal/gen"
	"datastaging/internal/model"
	"datastaging/internal/simtime"
	"datastaging/internal/state"
	"datastaging/internal/testnet"
)

func TestValidateAcceptsHeuristicOutput(t *testing.T) {
	sc := testnet.Line(4, 1024, 8000, time.Hour)
	cfg := core.Config{Heuristic: core.PartialPath, Criterion: core.C4,
		EU: core.EUFromLog10(0), Weights: model.Weights1x10x100}
	res, err := core.Schedule(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(sc, res.Transfers); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	sat, err := SatisfiedSet(sc, res.Transfers)
	if err != nil {
		t.Fatal(err)
	}
	if len(sat) != len(res.Satisfied) {
		t.Errorf("SatisfiedSet size %d != scheduler's %d", len(sat), len(res.Satisfied))
	}
	for id, at := range res.Satisfied {
		if sat[id] != at {
			t.Errorf("request %v: validator arrival %v, scheduler %v", id, sat[id], at)
		}
	}
}

func corrupt(trs []state.Transfer) []state.Transfer {
	out := make([]state.Transfer, len(trs))
	copy(out, trs)
	return out
}

func TestValidateRejectsCorruptedSchedules(t *testing.T) {
	sc := testnet.Line(4, 1024, 8000, time.Hour)
	cfg := core.Config{Heuristic: core.PartialPath, Criterion: core.C4,
		EU: core.EUFromLog10(0), Weights: model.Weights1x10x100}
	res, err := core.Schedule(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	good := res.Transfers
	if len(good) != 3 {
		t.Fatalf("fixture: %d transfers", len(good))
	}
	tests := []struct {
		name   string
		mutate func(trs []state.Transfer) []state.Transfer
		substr string
		kind   Kind
	}{
		{"unknown item", func(trs []state.Transfer) []state.Transfer { trs[0].Item = 99; return trs }, "unknown item", KindShape},
		{"unknown link", func(trs []state.Transfer) []state.Transfer { trs[0].Link = 99; return trs }, "unknown link", KindShape},
		{"endpoint mismatch", func(trs []state.Transfer) []state.Transfer { trs[0].To = 3; return trs }, "do not match", KindShape},
		{"wrong duration", func(trs []state.Transfer) []state.Transfer { trs[0].Duration++; return trs }, "duration", KindShape},
		{"wrong arrival", func(trs []state.Transfer) []state.Transfer { trs[0].Arrival++; return trs }, "arrival", KindShape},
		{"outside window", func(trs []state.Transfer) []state.Transfer {
			trs[0].Start = simtime.At(25 * time.Hour)
			trs[0].Arrival = trs[0].Start.Add(trs[0].Duration)
			return trs
		}, "window", KindShape},
		{"duplicate delivery", func(trs []state.Transfer) []state.Transfer {
			// Replay the final hop in a later, non-overlapping slot.
			dup := trs[2]
			dup.Start = dup.Start.Add(30 * time.Minute)
			dup.Arrival = dup.Start.Add(dup.Duration)
			return append(trs, dup)
		}, "already holds", KindDuplicateDelivery},
		{"missing copy", func(trs []state.Transfer) []state.Transfer {
			// Keep only the last hop: its sender never received the item.
			return trs[2:]
		}, "never holds", KindMissingCopy},
		{"starts before copy", func(trs []state.Transfer) []state.Transfer {
			trs[1].Start = 0
			trs[1].Arrival = trs[1].Start.Add(trs[1].Duration)
			return trs
		}, "before copy", KindCopyLifetime},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			trs := tc.mutate(corrupt(good))
			err := Validate(sc, trs)
			if err == nil {
				t.Fatal("corrupted schedule accepted")
			}
			if !strings.Contains(err.Error(), tc.substr) {
				t.Errorf("error %q does not contain %q", err, tc.substr)
			}
			var v *Violation
			if !errors.As(err, &v) {
				t.Fatalf("error %T is not a *Violation", err)
			}
			if v.Kind != tc.kind {
				t.Errorf("violation kind %v, want %v", v.Kind, tc.kind)
			}
		})
	}
}

func TestValidateRejectsLinkOverlap(t *testing.T) {
	b := testnet.NewBuilder()
	ms := b.Machines(2, 1<<30)
	link := b.Link(ms[0], ms[1], 0, 24*time.Hour, 8000)
	b.Link(ms[1], ms[0], 0, 24*time.Hour, 8000)
	itemA := b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[1], time.Hour, model.High)})
	itemB := b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[1], time.Hour, model.Low)})
	sc := b.Build("overlap")
	d := sc.Network.Link(link).TransferDuration(1024)
	mk := func(item model.ItemID, start time.Duration) state.Transfer {
		return state.Transfer{
			Item: item, Link: link, From: ms[0], To: ms[1],
			Start: simtime.At(start), Duration: d, Arrival: simtime.At(start).Add(d),
		}
	}
	trs := []state.Transfer{mk(itemA, 0), mk(itemB, 500*time.Millisecond)}
	err := Validate(sc, trs)
	if err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("overlapping transfers: got %v", err)
	}
}

func TestValidateRejectsCapacityOverflowAndGCViolation(t *testing.T) {
	b := testnet.NewBuilder()
	ms := b.Machines(3, 1500) // fits one copy
	l01 := b.Link(ms[0], ms[1], 0, 24*time.Hour, 80000)
	b.Link(ms[1], ms[2], 0, 24*time.Hour, 80000)
	b.Link(ms[2], ms[0], 0, 24*time.Hour, 80000)
	itemA := b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[2], 30*time.Minute, model.High)})
	itemB := b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[2], 30*time.Minute, model.Low)})
	sc := b.Build("capviolation")
	d := sc.Network.Link(l01).TransferDuration(1024)
	mk := func(item model.ItemID, start time.Duration) state.Transfer {
		return state.Transfer{
			Item: item, Link: l01, From: ms[0], To: ms[1],
			Start: simtime.At(start), Duration: d, Arrival: simtime.At(start).Add(d),
		}
	}
	// Both copies staged at machine 1 during overlapping holds: overflow.
	trs := []state.Transfer{mk(itemA, 0), mk(itemB, time.Second)}
	err := Validate(sc, trs)
	if err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Errorf("capacity overflow: got %v", err)
	}
	// After itemA's copy is collected (30m + 6m), itemB fits.
	trs = []state.Transfer{mk(itemA, 0), mk(itemB, 37*time.Minute)}
	if err := Validate(sc, trs); err != nil {
		t.Errorf("post-gc schedule rejected: %v", err)
	}
	// A transfer out of machine 1 after garbage collection must fail.
	l12 := sc.Network.Link(1)
	d12 := l12.TransferDuration(1024)
	trs = []state.Transfer{mk(itemA, 0), {
		Item: itemA, Link: 1, From: ms[1], To: ms[2],
		Start: simtime.At(40 * time.Minute), Duration: d12,
		Arrival: simtime.At(40 * time.Minute).Add(d12),
	}}
	err = Validate(sc, trs)
	if err == nil || !strings.Contains(err.Error(), "collected") {
		t.Errorf("post-gc send: got %v", err)
	}
}

func TestValidatePortExclusivity(t *testing.T) {
	b := testnet.NewBuilder()
	ms := b.Machines(3, 1<<30)
	l01 := b.Link(ms[0], ms[1], 0, 24*time.Hour, 8000)
	l02 := b.Link(ms[0], ms[2], 0, 24*time.Hour, 8000)
	b.Link(ms[1], ms[0], 0, 24*time.Hour, 8000)
	b.Link(ms[2], ms[0], 0, 24*time.Hour, 8000)
	itemA := b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[1], time.Hour, model.High)})
	itemB := b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[2], time.Hour, model.Low)})
	sc := b.Build("ports")
	d := sc.Network.Link(l01).TransferDuration(1024)
	mk := func(item model.ItemID, link model.LinkID, to model.MachineID, start time.Duration) state.Transfer {
		return state.Transfer{
			Item: item, Link: link, From: ms[0], To: to,
			Start: simtime.At(start), Duration: d, Arrival: simtime.At(start).Add(d),
		}
	}
	overlapping := []state.Transfer{mk(itemA, l01, ms[1], 0), mk(itemB, l02, ms[2], 0)}
	// Fine under the paper's parallel-send model...
	if err := Validate(sc, overlapping); err != nil {
		t.Fatalf("parallel model rejected concurrent sends: %v", err)
	}
	// ...rejected once transfers are serialized.
	sc.SerialTransfers = true
	err := Validate(sc, overlapping)
	if err == nil || !strings.Contains(err.Error(), "send port") {
		t.Errorf("serialized model: got %v", err)
	}
	// Sequential sends pass in both modes.
	sequential := []state.Transfer{mk(itemA, l01, ms[1], 0), mk(itemB, l02, ms[2], 2*time.Second)}
	if err := Validate(sc, sequential); err != nil {
		t.Errorf("sequential sends rejected: %v", err)
	}
}

// TestEverySchedulerProducesValidSchedules is the central integration test:
// every heuristic/criterion pair, both random lower bounds, and the
// priority-first baseline must emit schedules the independent validator
// accepts, with a satisfied set that matches exactly.
func TestEverySchedulerProducesValidSchedules(t *testing.T) {
	p := gen.Default()
	p.Machines = gen.IntRange{Min: 6, Max: 8}
	p.RequestsPerMachine = gen.IntRange{Min: 8, Max: 12}
	w := model.Weights1x10x100
	for seed := int64(1); seed <= 3; seed++ {
		sc := testnet.Generate(p, seed)
		type run struct {
			name string
			res  *core.Result
			err  error
		}
		var runs []run
		for _, pair := range core.Pairs() {
			for _, eu := range []core.EUWeights{core.EUUrgencyOnly, core.EUFromLog10(0), core.EUPriorityOnly} {
				cfg := core.Config{Heuristic: pair.Heuristic, Criterion: pair.Criterion, EU: eu, Weights: w}
				res, err := core.Schedule(sc, cfg)
				runs = append(runs, run{
					name: cfg.Heuristic.String() + "/" + cfg.Criterion.String() + "@" + eu.Label(),
					res:  res, err: err,
				})
			}
		}
		rd, err := core.RandomDijkstra(sc, w, seed)
		runs = append(runs, run{name: "random_Dijkstra", res: rd, err: err})
		sd, err := core.SingleDijkstraRandom(sc, w, seed)
		runs = append(runs, run{name: "single_Dij_random", res: sd, err: err})
		pf, err := core.PriorityFirst(sc, w)
		runs = append(runs, run{name: "priority_first", res: pf, err: err})

		for _, r := range runs {
			if r.err != nil {
				t.Fatalf("seed %d %s: %v", seed, r.name, r.err)
			}
			if err := Validate(sc, r.res.Transfers); err != nil {
				t.Errorf("seed %d %s: invalid schedule: %v", seed, r.name, err)
				continue
			}
			sat, err := SatisfiedSet(sc, r.res.Transfers)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, r.name, err)
			}
			if len(sat) != len(r.res.Satisfied) {
				t.Errorf("seed %d %s: validator satisfied %d, scheduler %d",
					seed, r.name, len(sat), len(r.res.Satisfied))
			}
		}
	}
}
