package validator

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

// TestQuickStateAndValidatorAgree is the two-implementations cross-check:
// internal/state (the scheduler's incremental bookkeeping) and this package
// (batch replay) encode the same model rules independently. Any schedule
// state accepts, the validator must accept — in both the parallel and the
// serialized-port models — and their satisfied sets must match.
func TestQuickStateAndValidatorAgree(t *testing.T) {
	p := gen.Default()
	p.Machines = gen.IntRange{Min: 4, Max: 6}
	p.RequestsPerMachine = gen.IntRange{Min: 3, Max: 6}
	property := func(seed int64, serial bool) bool {
		sc := testnet.Generate(p, seed%10000)
		sc.SerialTransfers = serial
		st := state.New(sc)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 400; i++ {
			item := model.ItemID(rng.Intn(len(sc.Items)))
			link := model.LinkID(rng.Intn(len(sc.Network.Links)))
			start := simtime.At(time.Duration(rng.Int63n(int64(3 * time.Hour))))
			st.Commit(item, link, start) // errors are expected and fine
		}
		if err := Validate(sc, st.Transfers()); err != nil {
			t.Logf("seed %d serial=%v: validator rejected state-accepted schedule: %v", seed, serial, err)
			return false
		}
		sat, err := SatisfiedSet(sc, st.Transfers())
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if len(sat) != len(st.Satisfied()) {
			t.Logf("seed %d serial=%v: satisfied sets differ: %d vs %d",
				seed, serial, len(sat), len(st.Satisfied()))
			return false
		}
		for id, at := range st.Satisfied() {
			if sat[id] != at {
				t.Logf("seed %d: request %v arrival differs", seed, id)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
