package serve

import (
	"encoding/json"
	"fmt"
	"time"

	"datastaging/internal/model"
	"datastaging/internal/obs/lifecycle"
	"datastaging/internal/simtime"
	"datastaging/internal/state"
)

// Instant is a simtime.Instant that accepts two JSON encodings: a number
// (nanoseconds since the scheduling epoch, the repo's native encoding) or a
// Go duration string like "90m" (the curl-friendly form). It always
// marshals as a number, matching scenario JSON.
type Instant simtime.Instant

// Instant converts to the simulator's time type.
func (t Instant) Instant() simtime.Instant { return simtime.Instant(t) }

// MarshalJSON emits nanoseconds since the epoch.
func (t Instant) MarshalJSON() ([]byte, error) {
	return json.Marshal(int64(t))
}

// UnmarshalJSON accepts either a nanosecond count or a duration string.
func (t *Instant) UnmarshalJSON(b []byte) error {
	var ns int64
	if err := json.Unmarshal(b, &ns); err == nil {
		*t = Instant(ns)
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("serve: instant must be a nanosecond count or a duration string: %s", b)
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("serve: bad duration %q: %w", s, err)
	}
	*t = Instant(d)
	return nil
}

// SourceSpec is one initial location of a submitted item.
type SourceSpec struct {
	Machine int `json:"machine"`
	// Available is when the copy exists there (default: the epoch).
	Available Instant `json:"available,omitempty"`
}

// RequestSpec is one deadline-bearing request of a submitted item.
type RequestSpec struct {
	Machine  int     `json:"machine"`
	Deadline Instant `json:"deadline"`
	Priority int     `json:"priority"`
}

// Submission is one client request to stage a data item: the item's size
// and sources plus every destination that wants it. It is both the POST
// /v1/requests body and the in-process Submit argument.
type Submission struct {
	Name      string        `json:"name,omitempty"`
	SizeBytes int64         `json:"sizeBytes"`
	Sources   []SourceSpec  `json:"sources"`
	Requests  []RequestSpec `json:"requests"`
}

// item converts the submission into the scenario item it becomes at
// admission time.
func (s Submission) item(id model.ItemID) model.Item {
	it := model.Item{
		ID:        id,
		Name:      s.Name,
		SizeBytes: s.SizeBytes,
	}
	if it.Name == "" {
		it.Name = fmt.Sprintf("submit-%d", id)
	}
	for _, src := range s.Sources {
		it.Sources = append(it.Sources, model.Source{
			Machine:   model.MachineID(src.Machine),
			Available: src.Available.Instant(),
		})
	}
	for _, rq := range s.Requests {
		it.Requests = append(it.Requests, model.Request{
			Machine:  model.MachineID(rq.Machine),
			Deadline: rq.Deadline.Instant(),
			Priority: model.Priority(rq.Priority),
		})
	}
	return it
}

// Item converts the submission into the scenario item it becomes at
// admission time (the sharded front-end builds its global scenario from
// these).
func (s Submission) Item(id model.ItemID) model.Item { return s.item(id) }

// Validate rejects malformed submissions against a network of the given
// size, mirroring scenario.Validate's per-item invariants. Engines run it
// on Submit; the sharded front-end runs it once against the global network
// before classifying the submission.
func (s Submission) Validate(numMachines int) error { return s.validate(numMachines) }

// validate rejects malformed submissions before they enter the intake
// queue, mirroring scenario.Validate's per-item invariants.
func (s Submission) validate(numMachines int) error {
	if s.SizeBytes <= 0 {
		return fmt.Errorf("serve: non-positive item size %d", s.SizeBytes)
	}
	if len(s.Sources) == 0 {
		return fmt.Errorf("serve: submission has no sources")
	}
	if len(s.Requests) == 0 {
		return fmt.Errorf("serve: submission has no requests")
	}
	srcs := make(map[int]bool, len(s.Sources))
	for _, src := range s.Sources {
		if src.Machine < 0 || src.Machine >= numMachines {
			return fmt.Errorf("serve: source machine %d out of range [0,%d)", src.Machine, numMachines)
		}
		if srcs[src.Machine] {
			return fmt.Errorf("serve: duplicate source machine %d", src.Machine)
		}
		srcs[src.Machine] = true
	}
	dests := make(map[int]bool, len(s.Requests))
	for _, rq := range s.Requests {
		if rq.Machine < 0 || rq.Machine >= numMachines {
			return fmt.Errorf("serve: request machine %d out of range [0,%d)", rq.Machine, numMachines)
		}
		if srcs[rq.Machine] {
			return fmt.Errorf("serve: request machine %d is also a source", rq.Machine)
		}
		if dests[rq.Machine] {
			return fmt.Errorf("serve: duplicate request machine %d", rq.Machine)
		}
		dests[rq.Machine] = true
		if rq.Priority < 0 {
			return fmt.Errorf("serve: negative priority %d", rq.Priority)
		}
		if rq.Deadline <= 0 {
			return fmt.Errorf("serve: deadline %v not after the epoch", rq.Deadline.Instant())
		}
	}
	return nil
}

// Status is the lifecycle state of a submission or of one of its requests.
type Status string

// The admission verdicts.
const (
	// StatusQueued: accepted into the intake queue, awaiting its admission
	// epoch.
	StatusQueued Status = "queued"
	// StatusAdmitted: the epoch replan committed transfers that deliver the
	// item by the request's deadline.
	StatusAdmitted Status = "admitted"
	// StatusRejected: no feasible schedule satisfies the request alongside
	// the committed load.
	StatusRejected Status = "rejected"
)

// RequestVerdict is the admission decision for one request of a submission.
type RequestVerdict struct {
	// Request is the scenario-level id the request was assigned.
	Request model.RequestID `json:"request"`
	Machine int             `json:"machine"`
	Status  Status          `json:"status"`
	// Deadline echoes the request; Completion is the committed delivery
	// instant (admitted only).
	Deadline   Instant `json:"deadline"`
	Completion Instant `json:"completion,omitempty"`
	// Reason classifies a rejection (explain's verdict: starved-by-contention,
	// infeasible-even-alone, delivered-late).
	Reason string `json:"reason,omitempty"`
	// BlamedLink is the most-obstructed link of a starved request's ideal
	// path (-1 when no single link is to blame).
	BlamedLink int `json:"blamedLink,omitempty"`
}

// TicketView is the externally visible state of one submission: the JSON
// document of GET /v1/requests/{id}.
type TicketView struct {
	ID string `json:"id"`
	// Status aggregates the per-request verdicts: admitted if any request
	// is admitted, rejected otherwise;
	// queued before the admission epoch ran.
	Status Status `json:"status"`
	// Item is the scenario item id assigned at admission (-1 while queued).
	Item int `json:"item"`
	// Epoch is the instant of the admission epoch that decided the ticket.
	Epoch    Instant          `json:"epoch,omitempty"`
	Arrived  Instant          `json:"arrived"`
	Requests []RequestVerdict `json:"requests,omitempty"`
	// Route is the item's committed transfer chain (admitted tickets).
	Route []state.Transfer `json:"route,omitempty"`
}

// TraceView is the audit trail of one submission: the JSON document of GET
// /v1/requests/{id}/trace. Records is empty for a ticket still awaiting its
// admission epoch.
type TraceView struct {
	ID      string             `json:"id"`
	Records []lifecycle.Record `json:"records"`
}

// ScheduleView is the committed-schedule snapshot served at GET
// /v1/schedule.
type ScheduleView struct {
	Now           Instant          `json:"now"`
	Epochs        int              `json:"epochs"`
	Items         int              `json:"items"`
	TotalRequests int              `json:"totalRequests"`
	Satisfied     int              `json:"satisfied"`
	WeightedValue float64          `json:"weightedValue"`
	Transfers     []state.Transfer `json:"transfers"`
}

// Info is the service description served at GET /v1/info: what a trace
// replay needs to place its arrivals on the service's clock (Now, and on the
// wall clock TimeScale, simulated seconds per wall second), plus live queue
// state. Every field is read-only.
// A sharded service (stagesvc -shards) additionally reports the partition:
// one ShardInfo per region plus the cut-link summary.
type Info struct {
	Scenario  string  `json:"scenario"`
	Machines  int     `json:"machines"`
	Links     int     `json:"links"`
	Items     int     `json:"items"`
	Horizon   Instant `json:"horizon"`
	Now       Instant `json:"now"`
	Queue     int     `json:"queue"`
	QueueCap  int     `json:"queueCap"`
	MaxBatch  int     `json:"maxBatch"`
	Virtual   bool    `json:"virtualClock"`
	TimeScale float64 `json:"timeScale"`
	Scheduler string  `json:"scheduler"`
	Draining  bool    `json:"draining"`
	// Shards describes each admission region of a sharded service, in
	// shard order; absent on a single-engine service.
	Shards []ShardInfo `json:"shards,omitempty"`
	// CutLinks counts the virtual links the partition severed (links whose
	// endpoints live in different shards); those carry only coordinator-
	// committed cross-shard transfers.
	CutLinks int `json:"cutLinks,omitempty"`
}

// ShardInfo summarizes one admission shard of a sharded service: its
// region size, its projected sub-network, and its live epoch/queue state.
type ShardInfo struct {
	Shard    int `json:"shard"`
	Machines int `json:"machines"`
	Links    int `json:"links"`
	Items    int `json:"items"`
	Epochs   int `json:"epochs"`
	Queue    int `json:"queue"`
}
