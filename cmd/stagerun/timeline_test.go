package main

import (
	"strings"
	"testing"
	"time"

	"datastaging/internal/core"
	"datastaging/internal/gen"
	"datastaging/internal/model"
	"datastaging/internal/report/utilization"
	"datastaging/internal/testnet"
)

func TestTimelineRendersActivity(t *testing.T) {
	sc := testnet.Line(3, 1024, 8000, time.Hour)
	cfg := core.Config{Heuristic: core.PartialPath, Criterion: core.C4,
		EU: core.EUFromLog10(0), Weights: model.Weights1x10x100}
	res, err := core.Schedule(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := timeline(sc, res.Transfers, 40)
	if !strings.Contains(out, "2 transfers") {
		t.Errorf("header missing transfer count:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header + 3 machines
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Machine 0 only sends, machine 2 only receives, machine 1 does both
	// (sequentially, so S and R marks but no forced '#').
	if !strings.Contains(lines[1], "S") || strings.Contains(lines[1], "R") {
		t.Errorf("machine 0 row wrong: %q", lines[1])
	}
	if !strings.Contains(lines[3], "R") || strings.Contains(lines[3], "S") {
		t.Errorf("machine 2 row wrong: %q", lines[3])
	}
	if !strings.Contains(lines[2], "S") || !strings.Contains(lines[2], "R") {
		t.Errorf("machine 1 row should both send and receive: %q", lines[2])
	}
}

func TestTimelineEmpty(t *testing.T) {
	sc := testnet.Line(2, 1024, 8000, time.Hour)
	if out := timeline(sc, nil, 40); !strings.Contains(out, "empty") {
		t.Errorf("empty timeline: %q", out)
	}
}

func TestBusiestLinks(t *testing.T) {
	sc := testnet.Line(3, 1024, 8000, time.Hour)
	cfg := core.Config{Heuristic: core.PartialPath, Criterion: core.C4,
		EU: core.EUFromLog10(0), Weights: model.Weights1x10x100}
	res, err := core.Schedule(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	links := busiestLinks(utilization.Compute(sc, res.Transfers).Links, 10)
	if len(links) != 2 {
		t.Fatalf("got %d used links, want 2", len(links))
	}
	for _, l := range links {
		if l.Transfers != 1 {
			t.Errorf("link %d: %d transfers", l.Link, l.Transfers)
		}
		if l.Busy != 1024*time.Millisecond {
			t.Errorf("link %d: busy %v", l.Link, l.Busy)
		}
		if l.BusyFraction <= 0 || l.BusyFraction > 1 {
			t.Errorf("link %d: utilization %v", l.Link, l.BusyFraction)
		}
	}

	// Busiest first, ties in link-ID order, cut at n.
	got := busiestLinks([]utilization.LinkProfile{
		{Link: 1, BusyFraction: 0.5}, {Link: 2, BusyFraction: 0.9},
		{Link: 3, BusyFraction: 0.5}, {Link: 4, BusyFraction: 0.1},
	}, 3)
	var ids []model.LinkID
	for _, l := range got {
		ids = append(ids, l.Link)
	}
	if len(ids) != 3 || ids[0] != 2 || ids[1] != 1 || ids[2] != 3 {
		t.Errorf("busiest links = %v, want [2 1 3]", ids)
	}
}

func TestTimelineOnGeneratedScenario(t *testing.T) {
	p := gen.Default()
	p.Machines = gen.IntRange{Min: 6, Max: 6}
	p.RequestsPerMachine = gen.IntRange{Min: 8, Max: 8}
	sc := testnet.Generate(p, 3)
	cfg := core.Config{Heuristic: core.FullPathOneDest, Criterion: core.C4,
		EU: core.EUFromLog10(2), Weights: model.Weights1x10x100}
	res, err := core.Schedule(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := timeline(sc, res.Transfers, 60)
	if len(strings.Split(out, "\n")) < 7 {
		t.Errorf("timeline too short:\n%s", out)
	}
	prof := utilization.Compute(sc, res.Transfers)
	links := busiestLinks(prof.Links, len(prof.Links))
	total := 0
	for i, l := range links {
		total += l.Transfers
		if l.BusyFraction > 1.0000001 {
			t.Errorf("link %d over 100%% utilized", l.Link)
		}
		if i > 0 && l.BusyFraction > links[i-1].BusyFraction {
			t.Errorf("link %d ranked below a less busy link", l.Link)
		}
	}
	if total != len(res.Transfers) {
		t.Errorf("links carry %d transfers, schedule has %d", total, len(res.Transfers))
	}
}
