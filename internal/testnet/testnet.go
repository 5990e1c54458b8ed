// Package testnet provides a compact scenario builder and canonical fixture
// topologies for tests across the repository. It is test-support code, but
// it lives as a normal package (not _test files) so every internal package
// and the examples can share the same fixtures.
package testnet

import (
	"fmt"
	"time"

	"datastaging/internal/gen"
	"datastaging/internal/model"
	"datastaging/internal/scenario"
	"datastaging/internal/simtime"
)

// Builder accumulates machines, links, and items and produces a validated
// scenario. Methods panic on misuse: builders run inside tests where a
// panic is an acceptable failure mode and keeps call sites terse.
type Builder struct {
	machines []model.Machine
	links    []model.VirtualLink
	items    []model.Item
	gc       time.Duration
	horizon  simtime.Instant
}

// NewBuilder returns a builder with the paper's γ of six minutes and a
// 24-hour horizon.
func NewBuilder() *Builder {
	return &Builder{gc: 6 * time.Minute, horizon: simtime.At(24 * time.Hour)}
}

// GC overrides the garbage-collection delay γ.
func (b *Builder) GC(d time.Duration) *Builder {
	b.gc = d
	return b
}

// Machine adds a machine with the given storage capacity and returns its ID.
func (b *Builder) Machine(capacityBytes int64) model.MachineID {
	id := model.MachineID(len(b.machines))
	b.machines = append(b.machines, model.Machine{
		ID:            id,
		Name:          fmt.Sprintf("m%d", id),
		CapacityBytes: capacityBytes,
	})
	return id
}

// Machines adds n machines with identical capacity.
func (b *Builder) Machines(n int, capacityBytes int64) []model.MachineID {
	out := make([]model.MachineID, n)
	for i := range out {
		out[i] = b.Machine(capacityBytes)
	}
	return out
}

// Link adds a virtual link available on [start, end) with the given
// bandwidth in bits per second and returns its ID. Each distinct call is
// its own physical link.
func (b *Builder) Link(from, to model.MachineID, start, end time.Duration, bps int64) model.LinkID {
	id := model.LinkID(len(b.links))
	b.links = append(b.links, model.VirtualLink{
		ID: id, From: from, To: to,
		Window:       simtime.Interval{Start: simtime.At(start), End: simtime.At(end)},
		BandwidthBPS: bps,
		Physical:     int(id),
	})
	return id
}

// LinkWindows adds one virtual link per window, all on a single physical
// link.
func (b *Builder) LinkWindows(from, to model.MachineID, bps int64, windows ...simtime.Interval) []model.LinkID {
	phys := len(b.links)
	out := make([]model.LinkID, 0, len(windows))
	for _, w := range windows {
		id := model.LinkID(len(b.links))
		b.links = append(b.links, model.VirtualLink{
			ID: id, From: from, To: to, Window: w, BandwidthBPS: bps, Physical: phys,
		})
		out = append(out, id)
	}
	return out
}

// Item adds a data item and returns its ID.
func (b *Builder) Item(sizeBytes int64, sources []model.Source, requests []model.Request) model.ItemID {
	id := model.ItemID(len(b.items))
	b.items = append(b.items, model.Item{
		ID:        id,
		Name:      fmt.Sprintf("item%d", id),
		SizeBytes: sizeBytes,
		Sources:   sources,
		Requests:  requests,
	})
	return id
}

// Src is a convenience constructor for a source.
func Src(m model.MachineID, available time.Duration) model.Source {
	return model.Source{Machine: m, Available: simtime.At(available)}
}

// Req is a convenience constructor for a request.
func Req(m model.MachineID, deadline time.Duration, p model.Priority) model.Request {
	return model.Request{Machine: m, Deadline: simtime.At(deadline), Priority: p}
}

// Build validates and returns the scenario, panicking on any error.
func (b *Builder) Build(name string) *scenario.Scenario {
	net, err := model.NewNetwork(b.machines, b.links)
	if err != nil {
		panic(fmt.Sprintf("testnet: %v", err))
	}
	s := &scenario.Scenario{
		Name:           name,
		Network:        net,
		Items:          b.items,
		GarbageCollect: b.gc,
		Horizon:        b.horizon,
	}
	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("testnet: %v", err))
	}
	return s
}

// KBPS converts kilobits per second to bits per second.
func KBPS(k int64) int64 { return k * 1000 }

// Line builds a bidirectional chain of n machines (0↔1↔...↔n-1), every link
// up for the whole day at the given bandwidth, with one item of the given
// size at machine 0 requested by machine n-1 with the given deadline and
// high priority. The simplest end-to-end staging fixture.
func Line(n int, sizeBytes int64, bps int64, deadline time.Duration) *scenario.Scenario {
	b := NewBuilder()
	ms := b.Machines(n, 1<<30)
	for i := 0; i < n-1; i++ {
		b.Link(ms[i], ms[i+1], 0, 24*time.Hour, bps)
		b.Link(ms[i+1], ms[i], 0, 24*time.Hour, bps)
	}
	b.Item(sizeBytes,
		[]model.Source{Src(ms[0], 0)},
		[]model.Request{Req(ms[n-1], deadline, model.High)})
	return b.Build(fmt.Sprintf("line%d", n))
}

// Diamond builds the four-machine diamond 0→{1,2}→3 with a reverse path
// 3→0 for strong connectivity. The top path (via 1) is fast, the bottom
// path (via 2) slow. One item at 0 requested by 3.
func Diamond(sizeBytes int64, deadline time.Duration) *scenario.Scenario {
	b := NewBuilder()
	ms := b.Machines(4, 1<<30)
	day := 24 * time.Hour
	b.Link(ms[0], ms[1], 0, day, KBPS(1000))
	b.Link(ms[1], ms[3], 0, day, KBPS(1000))
	b.Link(ms[0], ms[2], 0, day, KBPS(100))
	b.Link(ms[2], ms[3], 0, day, KBPS(100))
	b.Link(ms[3], ms[0], 0, day, KBPS(100))
	b.Item(sizeBytes,
		[]model.Source{Src(ms[0], 0)},
		[]model.Request{Req(ms[3], deadline, model.High)})
	return b.Build("diamond")
}

// Generate is gen.Generate for tests and benchmarks with known-good params:
// it panics on error.
func Generate(p gen.Params, seed int64) *scenario.Scenario {
	s, err := gen.Generate(p, seed)
	if err != nil {
		panic(err)
	}
	return s
}
