package state

import (
	"strings"
	"testing"
	"time"

	"datastaging/internal/model"
	"datastaging/internal/simtime"
	"datastaging/internal/testnet"
)

// serialScenario: machine 0 has two independent outgoing links to machines
// 1 and 2 and holds two items; with SerialTransfers the paper's
// parallel-send assumption is off, so the sends must not overlap.
func serialScenario() (*State, model.ItemID, model.ItemID) {
	b := testnet.NewBuilder()
	ms := b.Machines(3, 1<<30)
	day := 24 * time.Hour
	b.Link(ms[0], ms[1], 0, day, 8000)
	b.Link(ms[0], ms[2], 0, day, 8000)
	b.Link(ms[1], ms[0], 0, day, 8000)
	b.Link(ms[2], ms[0], 0, day, 8000)
	a := b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[1], time.Hour, model.High)})
	c := b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[2], time.Hour, model.Low)})
	sc := b.Build("serial")
	sc.SerialTransfers = true
	return New(sc), a, c
}

func TestSerialTransfersSendPortExclusive(t *testing.T) {
	st, a, c := serialScenario()
	if !st.SerialTransfers() {
		t.Fatal("serial mode should be on")
	}
	if _, err := st.Commit(a, 0, 0); err != nil {
		t.Fatalf("first send: %v", err)
	}
	// Different link, same sender, overlapping time: rejected.
	_, err := st.Commit(c, 1, simtime.At(500*time.Millisecond))
	if err == nil || !strings.Contains(err.Error(), "send port busy") {
		t.Errorf("overlapping send: got %v", err)
	}
	// After the first send completes it fits.
	if _, err := st.Commit(c, 1, simtime.At(1024*time.Millisecond)); err != nil {
		t.Errorf("sequential send: %v", err)
	}
}

func TestSerialTransfersReceivePortExclusive(t *testing.T) {
	b := testnet.NewBuilder()
	ms := b.Machines(3, 1<<30)
	day := 24 * time.Hour
	b.Link(ms[0], ms[2], 0, day, 8000)
	b.Link(ms[1], ms[2], 0, day, 8000)
	b.Link(ms[2], ms[0], 0, day, 8000)
	b.Link(ms[2], ms[1], 0, day, 8000)
	a := b.Item(1024, []model.Source{testnet.Src(ms[0], 0)},
		[]model.Request{testnet.Req(ms[2], time.Hour, model.High)})
	c := b.Item(1024, []model.Source{testnet.Src(ms[1], 0)},
		[]model.Request{testnet.Req(ms[2], time.Hour, model.Low)})
	sc := b.Build("serial-recv")
	sc.SerialTransfers = true
	st := New(sc)

	if _, err := st.Commit(a, 0, 0); err != nil {
		t.Fatal(err)
	}
	_, err := st.Commit(c, 1, simtime.At(100*time.Millisecond))
	if err == nil || !strings.Contains(err.Error(), "receive port busy") {
		t.Errorf("overlapping receive: got %v", err)
	}
}

func TestEarliestTransferSlotHonorsPorts(t *testing.T) {
	st, a, c := serialScenario()
	if _, err := st.Commit(a, 0, 0); err != nil {
		t.Fatal(err)
	}
	// Link 1 is idle, but machine 0's send port is busy until 1.024 s.
	d := st.Scenario().Network.Link(1).TransferDuration(st.Scenario().Item(c).SizeBytes)
	slot, ok := st.EarliestTransferSlot(1, 0, d)
	if !ok || slot != simtime.At(1024*time.Millisecond) {
		t.Errorf("slot: got (%v, %v), want 1.024s", slot, ok)
	}
	// With serial mode off the same query is immediate.
	parallel := testnet.Line(3, 1024, 8000, time.Hour)
	stOff := New(parallel)
	if slot, ok := stOff.EarliestTransferSlot(0, 0, d); !ok || slot != 0 {
		t.Errorf("parallel slot: got (%v, %v), want 0", slot, ok)
	}
}

// TestEarliestTransferSlotMatchesSlow pins the fused three-way kernel (and
// the hinted single-link path) bit-identical to the set-materializing
// reference across a grid of links, ready instants, and durations, with
// commits mutating the timelines between sweeps.
func TestEarliestTransferSlotMatchesSlow(t *testing.T) {
	for _, serial := range []bool{false, true} {
		st, a, c := serialScenario()
		if !serial {
			st.sendPort, st.recvPort = nil, nil
		}
		sweep := func(phase string) {
			links := len(st.Scenario().Network.Links)
			for id := 0; id < links; id++ {
				for readyMS := -100; readyMS < 3000; readyMS += 37 {
					ready := simtime.At(time.Duration(readyMS) * time.Millisecond)
					for _, d := range []time.Duration{0, 100 * time.Millisecond, 1024 * time.Millisecond, 48 * time.Hour} {
						got, gotOK := st.EarliestTransferSlot(model.LinkID(id), ready, d)
						want, wantOK := st.EarliestTransferSlotSlow(model.LinkID(id), ready, d)
						if got != want || gotOK != wantOK {
							t.Fatalf("serial=%v %s: slot(link %d, %v, %v) = (%v, %v), want (%v, %v)",
								serial, phase, id, ready, d, got, gotOK, want, wantOK)
						}
					}
				}
			}
		}
		sweep("fresh")
		if _, err := st.Commit(a, 0, 0); err != nil {
			t.Fatal(err)
		}
		sweep("after first commit")
		if _, err := st.Commit(c, 1, simtime.At(2*1024*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		sweep("after second commit")
	}
}

// TestSerializedSlotQueryZeroAllocs is the acceptance bound of the fused
// kernel: the serialized-transfer slot query — which used to materialize
// two intersection sets per call — must not allocate at all.
func TestSerializedSlotQueryZeroAllocs(t *testing.T) {
	st, a, _ := serialScenario()
	if _, err := st.Commit(a, 0, 0); err != nil {
		t.Fatal(err)
	}
	d := 500 * time.Millisecond
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := st.EarliestTransferSlot(1, 0, d); !ok {
			t.Fatal("no slot")
		}
	})
	if allocs != 0 {
		t.Errorf("serialized EarliestTransferSlot allocated %.1f times per query, want 0", allocs)
	}
	// The single-link path must be allocation-free too.
	st.sendPort, st.recvPort = nil, nil
	allocs = testing.AllocsPerRun(100, func() {
		if _, ok := st.EarliestTransferSlot(1, 0, d); !ok {
			t.Fatal("no slot")
		}
	})
	if allocs != 0 {
		t.Errorf("single-link EarliestTransferSlot allocated %.1f times per query, want 0", allocs)
	}
}
