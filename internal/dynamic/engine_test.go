package dynamic

import (
	"strings"
	"testing"
	"time"

	"datastaging/internal/core"
	"datastaging/internal/model"
	"datastaging/internal/simtime"
	"datastaging/internal/testnet"
)

// TestCheckEventRejections covers every rejection path of checkEvent, one
// table row per reason.
func TestCheckEventRejections(t *testing.T) {
	sc := testnet.Line(3, 1024, 8000, time.Hour) // 1 item, links 0..len-1

	cases := []struct {
		name string
		ev   Event
		want string
	}{
		{"unknown item (too large)", Event{Kind: ItemRelease, Item: model.ItemID(len(sc.Items))}, "unknown item"},
		{"unknown item (negative)", Event{Kind: ItemRelease, Item: -1}, "unknown item"},
		{"unknown link (too large)", Event{Kind: LinkFail, Link: model.LinkID(len(sc.Network.Links))}, "unknown link"},
		{"unknown link (negative)", Event{Kind: LinkFail, Link: -2}, "unknown link"},
		{"unknown event kind", Event{Kind: EventKind(42)}, "unknown event kind"},
		{"zero event kind", Event{}, "unknown event kind"},
		{"event before epoch (release)", Event{Kind: ItemRelease, Item: 0, At: -1}, "negative event time"},
		{"event before epoch (failure)", Event{Kind: LinkFail, Link: 0, At: simtime.At(-time.Minute)}, "negative event time"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkEvent(sc, tc.ev)
			if err == nil {
				t.Fatalf("event %+v accepted", tc.ev)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			// The same rejection must surface through Simulate, wrapped with
			// the event index.
			if _, serr := Simulate(sc, cfgC4(), []Event{tc.ev}); serr == nil {
				t.Fatalf("Simulate accepted event %+v", tc.ev)
			} else if !strings.Contains(serr.Error(), "event 0") {
				t.Fatalf("Simulate error %q does not name the offending event", serr)
			}
		})
	}

	// Sanity: a well-formed event passes.
	if err := checkEvent(sc, Event{Kind: ItemRelease, Item: 0, At: simtime.At(time.Minute)}); err != nil {
		t.Fatalf("valid event rejected: %v", err)
	}
}

// TestEngineMatchesSimulate drives an Engine by hand through the same
// scenario growth Simulate would derive and checks both land on the
// identical outcome — the contract that Simulate is a thin driver.
func TestEngineMatchesSimulate(t *testing.T) {
	sc := testnet.Line(4, 1024, 8000, time.Hour)
	release := simtime.At(10 * time.Minute)
	events := []Event{{At: release, Kind: ItemRelease, Item: 0}}

	out, err := Simulate(sc, cfgC4(), events)
	if err != nil {
		t.Fatal(err)
	}

	// The item arrives at its release: the engine's scenario starts empty
	// and grows in place to the item.
	work := *sc
	work.Items = sc.Items[:0]
	eng, err := NewEngine(&work, cfgC4())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ReplanAt(0); err != nil {
		t.Fatal(err)
	}
	work.Items = sc.Items[:1]
	if _, err := eng.ReplanAt(release); err != nil {
		t.Fatal(err)
	}

	if len(eng.Transfers()) != len(out.Transfers) {
		t.Fatalf("transfers: engine %d vs simulate %d", len(eng.Transfers()), len(out.Transfers))
	}
	for i := range out.Transfers {
		if eng.Transfers()[i] != out.Transfers[i] {
			t.Fatalf("transfer %d differs", i)
		}
	}
	if eng.Replans() != out.Replans {
		t.Errorf("replans: engine %d vs simulate %d", eng.Replans(), out.Replans)
	}
	if len(eng.Satisfied()) != len(out.Satisfied) {
		t.Errorf("satisfied: engine %d vs simulate %d", len(eng.Satisfied()), len(out.Satisfied))
	}
}

// TestEngineRejectsBadConfig: the constructor validates like Simulate does.
func TestEngineRejectsBadConfig(t *testing.T) {
	sc := testnet.Line(3, 1024, 8000, time.Hour)
	if _, err := NewEngine(sc, core.Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}
