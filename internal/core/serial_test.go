package core

import (
	"testing"

	"datastaging/internal/gen"
	"datastaging/internal/model"
	"datastaging/internal/testnet"
)

// TestSerialTransfersEndToEnd runs every pair with the §3 future-work port
// serialization enabled: the plan cache must stay exact (identical output
// to the paranoid re-run, including the conservative machine-port conflict
// tracking) and serialization can only reduce the achieved value.
func TestSerialTransfersEndToEnd(t *testing.T) {
	p := gen.Default()
	p.Machines = gen.IntRange{Min: 6, Max: 6}
	p.RequestsPerMachine = gen.IntRange{Min: 8, Max: 8}
	w := model.Weights1x10x100
	for seed := int64(1); seed <= 2; seed++ {
		parallel := testnet.Generate(p, seed)
		serial := testnet.Generate(p, seed)
		serial.SerialTransfers = true
		for _, pair := range Pairs() {
			cfg := Config{Heuristic: pair.Heuristic, Criterion: pair.Criterion,
				EU: EUFromLog10(2), Weights: w}

			cached, err := Schedule(serial, cfg)
			if err != nil {
				t.Fatalf("seed %d %v serial: %v", seed, pair, err)
			}
			naive, err := scheduleParanoid(serial, cfg)
			if err != nil {
				t.Fatalf("seed %d %v serial paranoid: %v", seed, pair, err)
			}
			if len(cached.Transfers) != len(naive.Transfers) {
				t.Fatalf("seed %d %v: serial cache diverged: %d vs %d transfers",
					seed, pair, len(cached.Transfers), len(naive.Transfers))
			}
			for i := range cached.Transfers {
				if cached.Transfers[i] != naive.Transfers[i] {
					t.Fatalf("seed %d %v: serial transfer %d differs", seed, pair, i)
				}
			}

			free, err := Schedule(parallel, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if cached.WeightedValue(serial, w) > free.WeightedValue(parallel, w) {
				t.Errorf("seed %d %v: serialization increased value (%v > %v)",
					seed, pair, cached.WeightedValue(serial, w), free.WeightedValue(parallel, w))
			}
		}
	}
}

// TestSerialScheduleHasExclusivePorts spot-checks the schedule itself: no
// machine sends (or receives) two transfers at once.
func TestSerialScheduleHasExclusivePorts(t *testing.T) {
	p := gen.Default()
	p.Machines = gen.IntRange{Min: 6, Max: 6}
	p.RequestsPerMachine = gen.IntRange{Min: 10, Max: 10}
	sc := testnet.Generate(p, 5)
	sc.SerialTransfers = true
	cfg := Config{Heuristic: FullPathOneDest, Criterion: C4, EU: EUFromLog10(2), Weights: model.Weights1x10x100}
	res, err := Schedule(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range res.Transfers {
		for _, b := range res.Transfers[i+1:] {
			overlap := a.Start < b.Arrival && b.Start < a.Arrival
			if !overlap {
				continue
			}
			if a.From == b.From {
				t.Fatalf("machine %d double-sends: %+v and %+v", a.From, a, b)
			}
			if a.To == b.To {
				t.Fatalf("machine %d double-receives: %+v and %+v", a.To, a, b)
			}
		}
	}
}
