package dynamic

import (
	"fmt"
	"testing"

	"datastaging/internal/gen"
	"datastaging/internal/model"
	"datastaging/internal/obs"
	"datastaging/internal/scenario"
	"datastaging/internal/simtime"
	"datastaging/internal/testnet"
)

// determinismEvents builds a mixed event script — staggered releases plus
// a couple of link failures — that exercises every replan path: items
// arriving, in-flight aborts, and downstream cascades.
func determinismEvents(sc *scenario.Scenario) []Event {
	evs := []Event{
		{At: simtime.Instant(600), Kind: ItemRelease, Item: model.ItemID(len(sc.Items) / 3)},
		{At: simtime.Instant(1200), Kind: ItemRelease, Item: model.ItemID(2 * len(sc.Items) / 3)},
		{At: simtime.Instant(900), Kind: LinkFail, Link: 0},
	}
	if len(sc.Network.Links) > 1 {
		evs = append(evs, Event{At: simtime.Instant(1500), Kind: LinkFail,
			Link: model.LinkID(len(sc.Network.Links) / 2)})
	}
	return evs
}

func outcomeKey(out *Outcome) string {
	return fmt.Sprintf("%d transfers %d satisfied %d aborted %d replans %v %v",
		len(out.Transfers), len(out.Satisfied), len(out.Aborted), out.Replans,
		out.Transfers, out.Aborted)
}

// TestSimulateDeterministicAcrossParallelism pins the plan cache across
// repeated epochs of the dynamic simulator: epoch replans executed with the
// conflict-tracking planner and with the paranoid recompute-everything
// reference must produce byte-identical outcomes.
func TestSimulateDeterministicAcrossParallelism(t *testing.T) {
	params := gen.Default()
	params.Machines = gen.IntRange{Min: 6, Max: 8}
	params.RequestsPerMachine = gen.IntRange{Min: 4, Max: 6}

	seeds := []int64{1, 7, 23}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		sc := testnet.Generate(params, seed)
		events := determinismEvents(sc)

		cfg := cfgC4()
		out, err := Simulate(sc, cfg, events)
		if err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		if out.Replans < 2 {
			t.Errorf("seed %d: only %d replans; event script did not trigger epochs", seed, out.Replans)
		}
		cfg.Paranoid = true
		ref, err := Simulate(sc, cfg, events)
		if err != nil {
			t.Fatalf("seed %d paranoid: %v", seed, err)
		}
		if got, want := outcomeKey(ref), outcomeKey(out); got != want {
			t.Errorf("seed %d: paranoid outcome diverges from serial:\n  serial: %s\n  paranoid: %s",
				seed, want, got)
		}
	}
}

// TestSimulateObsCountsEpochs checks the dynamic instrumentation:
// dynamic.replans_total matches Outcome.Replans, the aborted counter
// matches len(Outcome.Aborted), and one EvEpochReplan event is emitted
// per epoch with abort counts that sum to the same total.
func TestSimulateObsCountsEpochs(t *testing.T) {
	params := gen.Default()
	params.Machines = gen.IntRange{Min: 6, Max: 8}
	params.RequestsPerMachine = gen.IntRange{Min: 4, Max: 6}
	sc := testnet.Generate(params, 7)

	mem := &obs.MemorySink{}
	cfg := cfgC4()
	cfg.Obs = obs.NewTraced(mem)
	out, err := Simulate(sc, cfg, determinismEvents(sc))
	if err != nil {
		t.Fatal(err)
	}
	snap := cfg.Obs.Snapshot()
	if got := snap.Counters["dynamic.replans_total"]; got != int64(out.Replans) {
		t.Errorf("dynamic.replans_total = %d, want %d", got, out.Replans)
	}
	if got := snap.Counters["dynamic.aborted_transfers_total"]; got != int64(len(out.Aborted)) {
		t.Errorf("dynamic.aborted_transfers_total = %d, want %d", got, len(out.Aborted))
	}
	epochs, abortSum := 0, 0
	for _, e := range mem.Events() {
		if e.Kind == obs.EvEpochReplan {
			epochs++
			abortSum += e.N
		}
	}
	if epochs != out.Replans {
		t.Errorf("%d EvEpochReplan events, want %d", epochs, out.Replans)
	}
	if abortSum != len(out.Aborted) {
		t.Errorf("epoch abort counts sum to %d, want %d", abortSum, len(out.Aborted))
	}
}
