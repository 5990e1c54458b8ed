package state

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"datastaging/internal/gen"
	"datastaging/internal/model"
	"datastaging/internal/simtime"
	"datastaging/internal/testnet"
)

// TestQuickCommitNeverViolatesInvariants hammers a state with random
// commit attempts (valid and invalid alike) and checks the global
// invariants that must survive any interleaving: every accepted transfer's
// sender held a live copy, no machine receives an item twice, link slots
// never overlap, and the satisfied set only contains on-time arrivals.
func TestQuickCommitNeverViolatesInvariants(t *testing.T) {
	p := gen.Default()
	p.Machines = gen.IntRange{Min: 4, Max: 6}
	p.RequestsPerMachine = gen.IntRange{Min: 3, Max: 6}
	property := func(seed int64) bool {
		sc := testnet.Generate(p, seed%10000)
		st := New(sc)
		rng := rand.New(rand.NewSource(seed))
		accepted := 0
		for i := 0; i < 300; i++ {
			item := model.ItemID(rng.Intn(len(sc.Items)))
			link := model.LinkID(rng.Intn(len(sc.Network.Links)))
			start := simtime.At(time.Duration(rng.Int63n(int64(3 * time.Hour))))
			if _, err := st.Commit(item, link, start); err == nil {
				accepted++
			}
		}
		if accepted == 0 {
			return true // nothing to check, still fine
		}
		return checkInvariants(t, st)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func checkInvariants(t *testing.T, st *State) bool {
	sc := st.Scenario()
	trs := st.Transfers()
	// No duplicate deliveries and sender-copy liveness.
	delivered := make(map[[2]int]simtime.Instant)
	for i := range sc.Items {
		for _, src := range sc.Items[i].Sources {
			delivered[[2]int{i, int(src.Machine)}] = src.Available
		}
	}
	for _, tr := range trs {
		key := [2]int{int(tr.Item), int(tr.To)}
		if _, dup := delivered[key]; dup {
			t.Logf("duplicate delivery of item %d to %d", tr.Item, tr.To)
			return false
		}
		avail, held := delivered[[2]int{int(tr.Item), int(tr.From)}]
		if !held || tr.Start.Before(avail) {
			t.Logf("transfer without live sender copy: %+v", tr)
			return false
		}
		delivered[key] = tr.Arrival
	}
	// Link exclusivity.
	byLink := make(map[model.LinkID][]Transfer)
	for _, tr := range trs {
		byLink[tr.Link] = append(byLink[tr.Link], tr)
	}
	for _, slot := range byLink {
		for i := range slot {
			for j := i + 1; j < len(slot); j++ {
				a, b := slot[i], slot[j]
				if a.Start < b.Arrival && b.Start < a.Arrival {
					t.Logf("link overlap: %+v vs %+v", a, b)
					return false
				}
			}
		}
	}
	// Satisfaction only for on-time arrivals at the right machine.
	for id, at := range st.Satisfied() {
		rq := sc.Request(id)
		if at.After(rq.Deadline) {
			t.Logf("late satisfaction: %v at %v", id, at)
			return false
		}
		got, ok := delivered[[2]int{int(id.Item), int(rq.Machine)}]
		if !ok || got != at {
			t.Logf("satisfied without matching delivery: %v", id)
			return false
		}
	}
	return true
}
