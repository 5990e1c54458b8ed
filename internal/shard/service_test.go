package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"datastaging/internal/core"
	"datastaging/internal/model"
	"datastaging/internal/obs"
	"datastaging/internal/scenario"
	"datastaging/internal/serve"
	"datastaging/internal/simtime"
	"datastaging/internal/testnet"
	"datastaging/internal/validator"
	"datastaging/internal/workload"
)

// diffTolerance is the documented objective-gap bound: on the builtin
// workloads over the reference 16-machine topology, the sharded service's
// weighted objective stays within this fraction of the single-world
// engine's. The gap exists because cross-shard admission settles each
// submission in one offer/commit round (no later replan may move its
// transfers) and because cut-link routing considers at most
// maxCutCandidates alternatives.
const diffTolerance = 0.85

func cfgShard(o *obs.Obs) core.Config {
	return core.Config{
		Heuristic: core.FullPathOneDest,
		Criterion: core.C4,
		EU:        core.EUFromLog10(2),
		Weights:   model.Weights1x10x100,
		Obs:       o,
	}
}

// meshNet builds the reference differential topology: an n-machine
// bidirectional ring plus a full bidirectional mesh among the block leaders
// (machines 0, n/4, n/2, 3n/4), so every pair of contiguous quarter-blocks
// has a direct cut link in both directions.
func meshNet(t *testing.T, n int, bps int64) *scenario.Scenario {
	t.Helper()
	b := testnet.NewBuilder()
	ms := b.Machines(n, 1<<40)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		b.Link(ms[i], ms[j], 0, 24*time.Hour, bps)
		b.Link(ms[j], ms[i], 0, 24*time.Hour, bps)
	}
	hubs := []int{0, n / 4, n / 2, 3 * n / 4}
	for _, a := range hubs {
		for _, c := range hubs {
			if a != c {
				b.Link(ms[a], ms[c], 0, 24*time.Hour, bps)
			}
		}
	}
	return b.Build("mesh")
}

// blockPlan partitions machines [0,n) into k contiguous blocks.
func blockPlan(t testing.TB, sc *scenario.Scenario, n, k int) *Plan {
	t.Helper()
	p := &Plan{Shards: make([][]model.MachineID, k)}
	for i := 0; i < n; i++ {
		s := i * k / n
		p.Shards[s] = append(p.Shards[s], model.MachineID(i))
	}
	if err := p.Validate(sc.Network); err != nil {
		t.Fatal(err)
	}
	return p
}

// replayArrivals drives one arrival stream through the surface serve.Engine
// and Service share: advance the virtual clock to each distinct arrival
// instant, submit that instant's group, flush the tail.
func replayArrivals[T serve.Pending](t *testing.T, target serve.API[T], arrivals []workload.Arrival) {
	t.Helper()
	var now simtime.Instant
	for i := range arrivals {
		a := &arrivals[i]
		if a.At > now {
			if err := target.Advance(a.At); err != nil {
				t.Fatalf("advance to %v: %v", a.At, err)
			}
			now = a.At
		}
		if _, err := target.Submit(serve.SubmissionFromArrival(*a)); err != nil {
			t.Fatalf("submit arrival %d: %v", i, err)
		}
	}
	if err := target.Advance(now); err != nil { // flush the final batch
		t.Fatalf("final flush: %v", err)
	}
}

// TestShardedK1Identity: with one shard the service is a pass-through — the
// committed schedule is bit-identical to a bare engine over the same
// scenario and submission stream.
func TestShardedK1Identity(t *testing.T) {
	sc := ringNet(t, 8, 1e9)
	subs := make([]serve.Submission, 0, 12)
	for i := 0; i < 12; i++ {
		subs = append(subs, serve.Submission{
			Name:      fmt.Sprintf("id-%d", i),
			SizeBytes: int64(4+i) << 20,
			Sources:   []serve.SourceSpec{{Machine: i % 8}},
			Requests: []serve.RequestSpec{{
				Machine:  (i + 3) % 8,
				Deadline: serve.Instant(time.Duration(2+i%4) * time.Hour),
				Priority: i % 3,
			}},
		})
	}
	eo := serve.Options{Config: cfgShard(obs.New()), VirtualClock: true, QueueCap: 64}
	eng, err := serve.New(sc, eo)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Greedy(sc.Network, 1)
	if err != nil {
		t.Fatal(err)
	}
	eo.Config = cfgShard(obs.New())
	svc, err := New(sc, plan, eo)
	if err != nil {
		t.Fatal(err)
	}
	// One epoch per submission on both sides.
	for i, sub := range subs {
		if _, err := eng.Submit(sub); err != nil {
			t.Fatalf("engine submit %d: %v", i, err)
		}
		if err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
		tk, err := svc.Submit(sub)
		if err != nil {
			t.Fatalf("service submit %d: %v", i, err)
		}
		if !strings.HasPrefix(tk.ID(), "s0-") {
			t.Fatalf("K=1 ticket %q is not a shard-0 local ticket", tk.ID())
		}
		if err := svc.Advance(svc.Now()); err != nil {
			t.Fatal(err)
		}
	}
	ev, sv := eng.Schedule(), svc.Schedule()
	if !reflect.DeepEqual(ev.Transfers, sv.Transfers) {
		t.Fatalf("K=1 transfers diverge:\nengine:  %+v\nsharded: %+v", ev.Transfers, sv.Transfers)
	}
	if ev.Satisfied != sv.Satisfied || math.Abs(ev.WeightedValue-sv.WeightedValue) > 1e-9 {
		t.Fatalf("K=1 objective diverges: engine %d/%.1f, sharded %d/%.1f",
			ev.Satisfied, ev.WeightedValue, sv.Satisfied, sv.WeightedValue)
	}
	if err := validator.Validate(svc.Scenario(), sv.Transfers); err != nil {
		t.Fatalf("K=1 merged schedule invalid: %v", err)
	}
}

// TestCrossShardAdmit: a submission spanning both shards of a 4-machine
// network runs the offer/commit round — the in-shard destination via leg A,
// the cut receiver via the coordinator's cut transfer, the far destination
// via leg B — and the merged schedule passes the independent validator.
func TestCrossShardAdmit(t *testing.T) {
	b := testnet.NewBuilder()
	ms := b.Machines(4, 1<<40)
	b.Link(ms[0], ms[1], 0, 24*time.Hour, 1e9)
	b.Link(ms[1], ms[0], 0, 24*time.Hour, 1e9)
	b.Link(ms[2], ms[3], 0, 24*time.Hour, 1e9)
	b.Link(ms[3], ms[2], 0, 24*time.Hour, 1e9)
	b.Link(ms[0], ms[2], 0, 24*time.Hour, 1e9) // the single cut link
	sc := b.Build("twoshard")

	p := &Plan{Shards: [][]model.MachineID{{0, 1}, {2, 3}}}
	if err := p.Validate(sc.Network); err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	svc, err := New(sc, p, serve.Options{
		Config: cfgShard(o), VirtualClock: true, QueueCap: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Info().CutLinks; got != 1 {
		t.Fatalf("Info.CutLinks = %d, want 1", got)
	}

	tk, err := svc.Submit(serve.Submission{
		Name: "span", SizeBytes: 8 << 20,
		Sources: []serve.SourceSpec{{Machine: 0}},
		Requests: []serve.RequestSpec{
			{Machine: 1, Deadline: serve.Instant(2 * time.Hour), Priority: 2},
			{Machine: 2, Deadline: serve.Instant(2 * time.Hour), Priority: 1},
			{Machine: 3, Deadline: serve.Instant(2 * time.Hour), Priority: 0},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tk.ID() != "x-0" {
		t.Fatalf("cross ticket id = %q, want x-0", tk.ID())
	}
	select {
	case <-tk.Done():
	default:
		t.Fatal("cross ticket not decided synchronously")
	}
	v := tk.View()
	if v.Status != serve.StatusAdmitted {
		t.Fatalf("cross ticket status = %q, want admitted; verdicts %+v", v.Status, v.Requests)
	}
	for i, rv := range v.Requests {
		if rv.Status != serve.StatusAdmitted {
			t.Errorf("request %d (machine %d): %q, reason %q", i, rv.Machine, rv.Status, rv.Reason)
		}
	}
	if got, ok := svc.TicketView("x-0"); !ok || got.Status != serve.StatusAdmitted {
		t.Fatalf("Ticket lookup: ok=%v view=%+v", ok, got)
	}
	legs, ok := svc.legTickets("x-0")
	if !ok || len(legs) != 2 {
		t.Fatalf("legTickets = %v, %v; want two legs (A on shard 0, B on shard 1)", legs, ok)
	}

	sv := svc.Schedule()
	cutID := svc.plan.CutLinks(sc.Network)[0]
	foundCut := false
	for _, tr := range sv.Transfers {
		if tr.Link == cutID {
			foundCut = true
			if tr.From != 0 || tr.To != 2 {
				t.Errorf("cut transfer endpoints %d→%d, want 0→2", tr.From, tr.To)
			}
		}
	}
	if !foundCut {
		t.Fatalf("no transfer on the cut link in the merged schedule: %+v", sv.Transfers)
	}
	if sv.Satisfied != 3 {
		t.Fatalf("Satisfied = %d, want 3", sv.Satisfied)
	}
	if err := validator.Validate(svc.Scenario(), sv.Transfers); err != nil {
		t.Fatalf("merged schedule invalid: %v", err)
	}

	// A second, purely local submission takes the zero-coordination path.
	lt, err := svc.Submit(serve.Submission{
		Name: "local", SizeBytes: 4 << 20,
		Sources:  []serve.SourceSpec{{Machine: 2}},
		Requests: []serve.RequestSpec{{Machine: 3, Deadline: serve.Instant(3 * time.Hour), Priority: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(lt.ID(), "s1-") {
		t.Fatalf("local ticket id = %q, want shard-1 prefix", lt.ID())
	}
	if err := svc.Advance(svc.Now()); err != nil {
		t.Fatal(err)
	}
	if got, ok := svc.TicketView(lt.ID()); !ok || got.Status != serve.StatusAdmitted {
		t.Fatalf("local ticket lookup: ok=%v view=%+v", ok, got)
	}
	if lc, cc := o.Counter("shard.admitted_total").Value(), o.Counter("shard.crossshard_total").Value(); lc != 1 || cc != 1 {
		t.Fatalf("counters: local=%d cross=%d, want 1/1", lc, cc)
	}
	if err := validator.Validate(svc.Scenario(), svc.Schedule().Transfers); err != nil {
		t.Fatalf("merged schedule invalid after local submit: %v", err)
	}
}

// TestCrossShardNoCutLink: when the partition severs every path to a
// destination shard (no cut link from the source shard at all), the round
// rejects those requests with an explicit reason instead of wedging.
func TestCrossShardNoCutLink(t *testing.T) {
	b := testnet.NewBuilder()
	ms := b.Machines(4, 1<<40)
	b.Link(ms[0], ms[1], 0, 24*time.Hour, 1e9)
	b.Link(ms[1], ms[0], 0, 24*time.Hour, 1e9)
	b.Link(ms[2], ms[3], 0, 24*time.Hour, 1e9)
	b.Link(ms[3], ms[2], 0, 24*time.Hour, 1e9)
	sc := b.Build("islands")

	p := &Plan{Shards: [][]model.MachineID{{0, 1}, {2, 3}}}
	if err := p.Validate(sc.Network); err != nil {
		t.Fatal(err)
	}
	svc, err := New(sc, p, serve.Options{
		Config: cfgShard(obs.New()), VirtualClock: true, QueueCap: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := svc.Submit(serve.Submission{
		Name: "unreachable", SizeBytes: 1 << 20,
		Sources: []serve.SourceSpec{{Machine: 0}},
		Requests: []serve.RequestSpec{
			{Machine: 2, Deadline: serve.Instant(2 * time.Hour), Priority: 2},
			{Machine: 3, Deadline: serve.Instant(2 * time.Hour), Priority: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	v := tk.View()
	if v.Status != serve.StatusRejected {
		t.Fatalf("status = %q, want rejected", v.Status)
	}
	for i, rv := range v.Requests {
		if rv.Status != serve.StatusRejected || !strings.Contains(rv.Reason, "no cut link") {
			t.Errorf("request %d: status %q reason %q, want rejected with a no-cut-link reason", i, rv.Status, rv.Reason)
		}
	}
	if n := len(svc.Schedule().Transfers); n != 0 {
		t.Fatalf("rejected round committed %d transfers", n)
	}
}

// TestCrossShardLateDestSalvage: when the cut transfer arrives past the cut
// receiver's own deadline, only that destination is dropped — the rest of
// the group still rides the round (cut + leg B) instead of failing whole.
func TestCrossShardLateDestSalvage(t *testing.T) {
	b := testnet.NewBuilder()
	ms := b.Machines(4, 1<<40)
	b.Link(ms[0], ms[1], 0, 24*time.Hour, 1e9)
	b.Link(ms[1], ms[0], 0, 24*time.Hour, 1e9)
	b.Link(ms[2], ms[3], 0, 24*time.Hour, 1e9)
	b.Link(ms[3], ms[2], 0, 24*time.Hour, 1e9)
	b.Link(ms[0], ms[2], 0, 24*time.Hour, 9000) // cut: ~2.1h for 8MiB
	sc := b.Build("latecut")

	p := &Plan{Shards: [][]model.MachineID{{0, 1}, {2, 3}}}
	if err := p.Validate(sc.Network); err != nil {
		t.Fatal(err)
	}
	svc, err := New(sc, p, serve.Options{
		Config: cfgShard(obs.New()), VirtualClock: true, QueueCap: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := svc.Submit(serve.Submission{
		Name: "late", SizeBytes: 8 << 20,
		Sources: []serve.SourceSpec{{Machine: 0}},
		Requests: []serve.RequestSpec{
			{Machine: 1, Deadline: serve.Instant(12 * time.Hour), Priority: 1},
			{Machine: 2, Deadline: serve.Instant(time.Hour), Priority: 2},
			{Machine: 3, Deadline: serve.Instant(12 * time.Hour), Priority: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	v := tk.View()
	if v.Status != serve.StatusAdmitted {
		t.Fatalf("status = %q, want admitted; verdicts %+v", v.Status, v.Requests)
	}
	for _, rv := range v.Requests {
		switch rv.Machine {
		case 1, 3:
			if rv.Status != serve.StatusAdmitted {
				t.Errorf("machine %d: %q reason %q, want admitted", rv.Machine, rv.Status, rv.Reason)
			}
		case 2:
			if rv.Status != serve.StatusRejected || !strings.Contains(rv.Reason, "delivers after the deadline") {
				t.Errorf("machine 2: %q reason %q, want rejected past-deadline", rv.Status, rv.Reason)
			}
			if rv.BlamedLink == 0 {
				t.Errorf("machine 2: no blamed link on the late cut verdict")
			}
		}
	}
	sv := svc.Schedule()
	if sv.Satisfied != 2 {
		t.Fatalf("Satisfied = %d, want 2 (machines 1 and 3)", sv.Satisfied)
	}
	if err := validator.Validate(svc.Scenario(), sv.Transfers); err != nil {
		t.Fatalf("merged schedule invalid: %v", err)
	}
}

// TestShardedDifferential replays every builtin workload through a single
// engine and through the sharded service at K=4 over the same topology and
// asserts (a) the merged sharded schedule passes the independent validator
// and (b) the sharded weighted objective stays within diffTolerance of the
// single world's.
func TestShardedDifferential(t *testing.T) {
	const n = 16
	for _, spec := range workload.Builtins() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			arrivals, err := spec.Compile(n)
			if err != nil {
				t.Fatal(err)
			}
			sc := meshNet(t, n, 1e9)
			eo := serve.Options{
				Config: cfgShard(obs.New()), VirtualClock: true,
				QueueCap: len(arrivals) + 1,
			}
			eng, err := serve.New(sc, eo)
			if err != nil {
				t.Fatal(err)
			}
			replayArrivals(t, eng, arrivals)
			single := eng.Schedule()

			sc2 := meshNet(t, n, 1e9)
			plan := blockPlan(t, sc2, n, 4)
			eo.Config = cfgShard(obs.New())
			svc, err := New(sc2, plan, eo)
			if err != nil {
				t.Fatal(err)
			}
			replayArrivals(t, svc, arrivals)
			sharded := svc.Schedule()

			if err := validator.Validate(svc.Scenario(), sharded.Transfers); err != nil {
				t.Fatalf("merged K=4 schedule invalid: %v", err)
			}
			if single.WeightedValue <= 0 {
				t.Fatalf("single world admitted nothing (%d arrivals)", len(arrivals))
			}
			ratio := sharded.WeightedValue / single.WeightedValue
			t.Logf("%s: %d arrivals; single %d sat / %.1f value; sharded %d sat / %.1f value; ratio %.3f",
				spec.Name, len(arrivals), single.Satisfied, single.WeightedValue,
				sharded.Satisfied, sharded.WeightedValue, ratio)
			if ratio < diffTolerance {
				t.Errorf("sharded objective ratio %.3f below tolerance %.2f", ratio, diffTolerance)
			}
		})
	}
}

// TestCrossShardHammer drives 16 goroutines of mixed local and cross-shard
// submissions against a wall-clock two-shard service and checks that every
// ticket decides and the merged schedule stays validator-clean. Run under
// -race this exercises the xmu → smu → engine lock hierarchy.
func TestCrossShardHammer(t *testing.T) {
	sc := ringNet(t, 8, 1e9)
	p := &Plan{Shards: [][]model.MachineID{{0, 1, 2, 3}, {4, 5, 6, 7}}}
	if err := p.Validate(sc.Network); err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	svc, err := New(sc, p, serve.Options{
		Config: cfgShard(o), QueueCap: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	per := 12
	if testing.Short() {
		per = 4
	}
	var (
		mu      sync.Mutex
		tickets []*Ticket
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := (w % 2) * 4
			for i := 0; i < per; i++ {
				var sub serve.Submission
				if (w+i)%3 == 0 {
					// Cross-shard: source in our block, destination across.
					sub = serve.Submission{
						Name: fmt.Sprintf("x-%d-%d", w, i), SizeBytes: 1 << 20,
						Sources:  []serve.SourceSpec{{Machine: base + i%4}},
						Requests: []serve.RequestSpec{{Machine: (base + 4 + i%4) % 8, Deadline: serve.Instant(8 * time.Hour), Priority: i % 3}},
					}
				} else {
					sub = serve.Submission{
						Name: fmt.Sprintf("l-%d-%d", w, i), SizeBytes: 1 << 20,
						Sources:  []serve.SourceSpec{{Machine: base + i%3}},
						Requests: []serve.RequestSpec{{Machine: base + 3, Deadline: serve.Instant(8 * time.Hour), Priority: i % 3}},
					}
				}
				tk, err := svc.Submit(sub)
				if errors.Is(err, serve.ErrOverloaded) {
					time.Sleep(time.Millisecond)
					i--
					continue
				}
				if err != nil {
					t.Errorf("worker %d submit %d: %v", w, i, err)
					return
				}
				mu.Lock()
				tickets = append(tickets, tk)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, tk := range tickets {
		select {
		case <-tk.Done():
		case <-ctx.Done():
			t.Fatalf("ticket %s undecided after drain", tk.ID())
		}
		if st := tk.View().Status; st != serve.StatusAdmitted && st != serve.StatusRejected {
			t.Errorf("ticket %s status %q after drain", tk.ID(), st)
		}
	}
	sv := svc.Schedule()
	if err := validator.Validate(svc.Scenario(), sv.Transfers); err != nil {
		t.Fatalf("merged schedule invalid: %v", err)
	}
	lc := o.Counter("shard.admitted_total").Value()
	cc := o.Counter("shard.crossshard_total").Value()
	if lc == 0 || cc == 0 {
		t.Fatalf("hammer exercised local=%d cross=%d rounds; want both > 0", lc, cc)
	}
	t.Logf("hammer: %d tickets, local=%d cross=%d rollbacks=%d, %d transfers, %d satisfied",
		len(tickets), lc, cc, o.Counter("shard.offer_rollbacks_total").Value(), len(sv.Transfers), sv.Satisfied)
}
