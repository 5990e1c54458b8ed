package dijkstra

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"datastaging/internal/gen"
	"datastaging/internal/model"
	"datastaging/internal/simtime"
	"datastaging/internal/state"
	"datastaging/internal/testnet"
)

// commitRandomPaths books n whole planned paths of randomly chosen items
// into the state, the way the heuristics extend a schedule, and records
// which items gained a holder.
func commitRandomPaths(t *testing.T, st *state.State, rng *rand.Rand, n int, touched map[model.ItemID]bool) {
	t.Helper()
	sc := st.Scenario()
	for ; n > 0; n-- {
		item := model.ItemID(rng.Intn(len(sc.Items)))
		pl := Compute(st, item)
		var reach []model.MachineID
		for m := range pl.Arrival {
			if mid := model.MachineID(m); pl.Reachable(mid) && !pl.IsRoot(mid) {
				reach = append(reach, mid)
			}
		}
		if len(reach) == 0 {
			continue
		}
		hops, _ := pl.PathTo(reach[rng.Intn(len(reach))])
		for _, h := range hops {
			if _, err := st.Commit(item, h.Link, h.Start); err != nil {
				t.Fatalf("item %d hop %+v: %v", item, h, err)
			}
		}
		touched[item] = true
	}
}

// TestQuickBoundIsLowerBound pins ComputeBound's claim on random committed
// states with storage tight enough to reject: the bound arrival is at or
// before the exact arrival at every request machine and every machine the
// bound forest keeps, wherever the exact forest arrives by the item's
// latest deadline, and an item's bound taken now still holds after further
// commits of other items and a floor advance. The uncut bound walk, whose
// labels the forest keeps up to its last request machine (checkStopped),
// is held to the same claim at every machine the exact forest reaches by
// the latest deadline. The generator is seeded so the storage-rejection
// count below cannot come out zero by luck.
func TestQuickBoundIsLowerBound(t *testing.T) {
	params := quickParams()
	params.CapacityBytes = gen.Int64Range{Min: 1 << 20, Max: 64 << 20}
	var compared, capBlocked, tighter int
	var s Scratch

	property := func(seed int64) bool {
		sc := testnet.Generate(params, seed%100000)
		rng := rand.New(rand.NewSource(seed))
		st := state.New(sc)
		n := len(sc.Items)
		commitRandomPaths(t, st, rng, n/2, map[model.ItemID]bool{})

		bounds := make([]*Plan, n)
		uncut := make([]*uncutWalk, n)
		for i := range bounds {
			item := model.ItemID(i)
			bounds[i] = s.ComputeBound(st, item, nil)
			if bounds[i].CapBlocked {
				t.Logf("seed %d item %d: bound forest flagged CapBlocked", seed, i)
				return false
			}
			if err := checkStopped(st, item, boundForest, bounds[i]); err != nil {
				t.Logf("seed %d item %d: against the uncut walk: %v", seed, i, err)
				return false
			}
			uncut[i] = walkUncut(st, item, boundForest)
		}
		// holds checks every item whose holders have not moved since its
		// bound was taken.
		holds := func(stage string, touched map[model.ItemID]bool) bool {
			for i, b := range bounds {
				item := model.ItemID(i)
				if touched[item] {
					continue
				}
				exact := s.Compute(st, item, nil)
				if exact.CapBlocked {
					capBlocked++
				}
				it := sc.Item(item)
				latest := it.LatestDeadline()
				request := make([]bool, len(exact.Arrival))
				for _, rq := range it.Requests {
					request[rq.Machine] = true
				}
				for m, at := range exact.Arrival {
					if at.After(latest) {
						continue
					}
					if u := uncut[i].Arrival[m]; u.After(at) {
						t.Logf("seed %d %s item %d machine %d: uncut bound walk %v after exact %v (latest deadline %v)",
							seed, stage, i, m, u, at, latest)
						return false
					}
					if !request[m] && !b.Reachable(model.MachineID(m)) {
						continue
					}
					compared++
					if b.Arrival[m] < at {
						tighter++
					}
					if b.Arrival[m].After(at) {
						t.Logf("seed %d %s item %d machine %d (request %v): bound %v after exact %v (latest deadline %v)",
							seed, stage, i, m, request[m], b.Arrival[m], at, latest)
						return false
					}
				}
			}
			return true
		}
		touched := map[model.ItemID]bool{}
		if !holds("at once", touched) {
			return false
		}
		commitRandomPaths(t, st, rng, n/4, touched)
		st.SetFloor(simtime.At(time.Duration(rng.Int63n(int64(45 * time.Minute)))))
		commitRandomPaths(t, st, rng, n/4, touched)
		return holds("later", touched)
	}
	// On this seed a "bound" that keeps the exact storage gate is beaten
	// after the floor advance — the non-monotonicity Plan.CapBlocked
	// documents; found by running the property against that mutation.
	if !property(8316047019281803308) {
		t.Error("failed on the pinned seed")
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
	if compared == 0 || capBlocked == 0 || tighter == 0 {
		t.Errorf("vacuous: %d labels compared, %d cap-blocked exact forests, %d labels where the bound was strictly earlier",
			compared, capBlocked, tighter)
	}
}
