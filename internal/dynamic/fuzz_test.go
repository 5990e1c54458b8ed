package dynamic

import "testing"

// FuzzEngineIncrementalEquivalence fuzzes the differential harness: the
// scenario seed varies the world (network shape, item sizes, deadlines) and
// the trace seed varies how many items are known at time zero, when the
// rest arrive and in what groups (grown in place or handed over as a new
// scenario value), link-failure times, and speculative epochs (how many
// items they append, and whether the epoch is kept or truncated and rolled
// back).
// Every epoch the incremental engine must match the full-replay oracle
// bit-for-bit on transfers, satisfied requests, aborts, and the weighted
// objective, and the final schedule must be validator-clean.
func FuzzEngineIncrementalEquivalence(f *testing.F) {
	f.Add(int64(1), int64(1))
	f.Add(int64(2), int64(99))
	f.Add(int64(7), int64(123456))
	f.Add(int64(42), int64(-1))
	f.Fuzz(func(t *testing.T, scSeed, traceSeed int64) {
		runDifferential(t, scSeed, traceSeed)
	})
}
