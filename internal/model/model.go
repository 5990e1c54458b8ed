// Package model defines the entities of the ICDCS 2000 data staging problem
// (paper §3): machines with storage capacity, unidirectional virtual
// communication links with availability windows and bandwidths, uniquely
// named data items with initial source locations, and prioritized,
// deadline-bearing data requests.
//
// The types here are plain data with validation; mutable scheduling state
// lives in internal/state and the heuristics in internal/core.
package model

import (
	"fmt"
	"time"

	"datastaging/internal/simtime"
)

// MachineID identifies a machine M[i] by its index in the network's machine
// list.
type MachineID int

// ItemID identifies a data item δ[i] by its index in the scenario's item
// list. Only requested items (the paper's Rq set) appear in a scenario; an
// item nobody requests never moves and is irrelevant to scheduling.
type ItemID int

// LinkID identifies a virtual link by its index in the network's link list.
type LinkID int

// Priority is the importance class of a data request. The paper's model
// allows priorities 0..P; the evaluation uses three classes, so the
// generator and the weight tables are built around Low/Medium/High, but
// nothing in the scheduler assumes exactly three.
type Priority int

// The three priority classes used throughout the paper's evaluation (§5.3).
const (
	Low Priority = iota
	Medium
	High

	// NumPriorities is the number of classes the standard weight tables
	// cover.
	NumPriorities = 3
)

// String returns a human-readable class name.
func (p Priority) String() string {
	switch p {
	case Low:
		return "low"
	case Medium:
		return "medium"
	case High:
		return "high"
	default:
		return fmt.Sprintf("priority(%d)", int(p))
	}
}

// Weights maps a Priority to its relative weight W[p] (paper §3). The
// global objective is the weighted sum of priorities of satisfied requests.
type Weights []float64

// The two weighting schemes evaluated in the paper (§5.3).
var (
	Weights1x5x10   = Weights{1, 5, 10}
	Weights1x10x100 = Weights{1, 10, 100}
)

// Of returns the weight of priority p. Priorities outside the table get
// weight 0 so that malformed inputs show up as zero contribution rather
// than a panic deep inside a heuristic.
func (w Weights) Of(p Priority) float64 {
	if int(p) < 0 || int(p) >= len(w) {
		return 0
	}
	return w[p]
}

// Machine is one node of the communication system: possibly a server
// holding initial data, possibly a client issuing requests, and always a
// potential intermediate staging location.
type Machine struct {
	ID   MachineID `json:"id"`
	Name string    `json:"name,omitempty"`
	// CapacityBytes is the machine's available storage for staged copies,
	// Cap[i] in the paper. It is net capacity: initial source copies are
	// not charged against it.
	CapacityBytes int64 `json:"capacityBytes"`
}

// VirtualLink is one unidirectional virtual communication link L[i,j][k]: a
// physical link restricted to a single availability window. A physical link
// that is up during nl disjoint intervals appears as nl virtual links
// (paper §3). Each virtual link carries one transfer at a time.
type VirtualLink struct {
	ID   LinkID    `json:"id"`
	From MachineID `json:"from"`
	To   MachineID `json:"to"`
	// Window is [Lst, Let): the interval during which the link exists.
	Window simtime.Interval `json:"window"`
	// BandwidthBPS is the link bandwidth in bits per second.
	BandwidthBPS int64 `json:"bandwidthBPS"`
	// Latency is the fixed per-transfer overhead (network latency, format
	// conversion, ...) folded into D[i,j][k](|d|). The paper's evaluation
	// parameters leave it unspecified; the generator defaults it to zero.
	Latency time.Duration `json:"latency,omitempty"`
	// Physical identifies the physical transmission link this virtual link
	// is a window of. Virtual links of the same physical link never overlap
	// in time. Purely informational for the scheduler.
	Physical int `json:"physical"`
}

// TransferDuration returns D[i,j][k](|d|): the time the link is occupied
// when carrying sizeBytes, i.e. latency + size/bandwidth, rounded up to the
// nanosecond so a committed slot never undershoots the true occupancy.
func (l *VirtualLink) TransferDuration(sizeBytes int64) time.Duration {
	bits := sizeBytes * 8
	secs := float64(bits) / float64(l.BandwidthBPS)
	d := time.Duration(secs * float64(time.Second))
	// Round up: recompute the bits the truncated duration would carry.
	if d.Seconds()*float64(l.BandwidthBPS) < float64(bits) {
		d++
	}
	return d + l.Latency
}

// Source is one initial location of a data item: the machine that holds it
// and the instant δst at which it becomes available there.
type Source struct {
	Machine   MachineID       `json:"machine"`
	Available simtime.Instant `json:"available"`
}

// Request is one data request: a destination machine that needs the item by
// Deadline (Rft) with a given Priority. Requests for the same item from
// different machines may have different deadlines and priorities.
type Request struct {
	Machine  MachineID       `json:"machine"`
	Deadline simtime.Instant `json:"deadline"`
	Priority Priority        `json:"priority"`
}

// Item is a requested data item Rq[j]: its size, its initial sources, and
// every request for it.
type Item struct {
	ID        ItemID    `json:"id"`
	Name      string    `json:"name,omitempty"`
	SizeBytes int64     `json:"sizeBytes"`
	Sources   []Source  `json:"sources"`
	Requests  []Request `json:"requests"`
}

// LatestDeadline returns the latest deadline among the item's requests —
// the reference instant for garbage collection (§4.4): intermediate copies
// are removed γ after it.
func (it *Item) LatestDeadline() simtime.Instant {
	var latest simtime.Instant
	for i, r := range it.Requests {
		if i == 0 || r.Deadline.After(latest) {
			latest = r.Deadline
		}
	}
	return latest
}

// RequestID names one request globally: the k-th request of item Rq[j].
type RequestID struct {
	Item  ItemID `json:"item"`
	Index int    `json:"index"`
}

// String formats the request id as item/index.
func (r RequestID) String() string { return fmt.Sprintf("rq[%d,%d]", r.Item, r.Index) }
