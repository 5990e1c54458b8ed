package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"datastaging/internal/model"
	"datastaging/internal/report/utilization"
	"datastaging/internal/scenario"
	"datastaging/internal/simtime"
	"datastaging/internal/state"
)

// timeline renders each machine as a row of time buckets spanning the
// schedule's active period. Bucket marks: 'S' sending only, 'R' receiving
// only, '#' both, '.' idle.
func timeline(sc *scenario.Scenario, transfers []state.Transfer, width int) string {
	if width < 10 {
		width = 10
	}
	if len(transfers) == 0 {
		return "(empty schedule)\n"
	}
	var span simtime.Interval
	span.Start = transfers[0].Start
	for _, tr := range transfers {
		if tr.Start < span.Start {
			span.Start = tr.Start
		}
		if tr.Arrival > span.End {
			span.End = tr.Arrival
		}
	}
	total := span.Length()
	if total <= 0 {
		total = time.Nanosecond
	}
	bucket := func(t simtime.Instant) int {
		b := int(int64(t.Sub(span.Start)) * int64(width) / int64(total))
		if b >= width {
			b = width - 1
		}
		if b < 0 {
			b = 0
		}
		return b
	}

	m := sc.Network.NumMachines()
	rows := make([][]byte, m)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", width))
	}
	mark := func(machine model.MachineID, from, to int, send bool) {
		for b := from; b <= to; b++ {
			cur := rows[machine][b]
			switch {
			case send && (cur == 'R' || cur == '#'):
				rows[machine][b] = '#'
			case !send && (cur == 'S' || cur == '#'):
				rows[machine][b] = '#'
			case send:
				rows[machine][b] = 'S'
			default:
				rows[machine][b] = 'R'
			}
		}
	}
	for _, tr := range transfers {
		b0, b1 := bucket(tr.Start), bucket(tr.Arrival)
		mark(tr.From, b0, b1, true)
		mark(tr.To, b0, b1, false)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "schedule timeline %v .. %v (%d transfers; S=send R=receive #=both)\n",
		span.Start, span.End, len(transfers))
	for i := 0; i < m; i++ {
		name := sc.Network.Machine(model.MachineID(i)).Name
		if name == "" {
			name = fmt.Sprintf("m%d", i)
		}
		fmt.Fprintf(&b, "%12s |%s|\n", name, rows[i])
	}
	return b.String()
}

// busiestLinks returns up to n of a profile's links, the most utilized
// first. It sorts a copy, so the profile keeps the link-ID order that
// -utilization prints; the sort is stable, so ties keep the lower link ID
// first.
func busiestLinks(links []utilization.LinkProfile, n int) []utilization.LinkProfile {
	out := append([]utilization.LinkProfile(nil), links...)
	sort.SliceStable(out, func(a, b int) bool { return out[a].BusyFraction > out[b].BusyFraction })
	if len(out) > n {
		out = out[:n]
	}
	return out
}
