package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// EventKind discriminates scheduling events.
type EventKind uint8

// The event taxonomy. Field semantics per kind are documented in DESIGN.md
// "Observability"; unused fields are zero.
const (
	// EvIteration ends one select-and-commit round; N is the number of
	// candidate communication steps considered.
	EvIteration EventKind = iota + 1
	// EvForestComputed is one Dijkstra run charged to the schedule: Item
	// is the item whose forest was (re)computed. Prefetched forests emit
	// this at first use, exactly where the lazy path would have computed
	// them.
	EvForestComputed
	// EvForestCacheHit is a reuse of a cached forest where the paper's
	// described implementation would have re-run Dijkstra.
	EvForestCacheHit
	// EvForestInvalidated is a dropped cached forest; Reason says why and
	// Item whose.
	EvForestInvalidated
	// EvTransferBooked is a committed transfer: Item over Link arriving
	// at Machine, At the start instant (ns), Value the duration in
	// seconds.
	EvTransferBooked
	// EvRequestSatisfied is a request deadline met: Item/Req identify the
	// request, Machine the destination, At the arrival instant (ns), and
	// Value the deadline slack in seconds.
	EvRequestSatisfied
	// EvItemDead marks an item the planner will never consider again;
	// Reason distinguishes no-open-requests from unreachable.
	EvItemDead
	// EvEpochReplan is one dynamic-simulator re-planning epoch: At the
	// epoch instant (ns), N the transfers newly aborted by this epoch's
	// event batch.
	EvEpochReplan
)

var eventKindNames = map[EventKind]string{
	EvIteration:         "iteration",
	EvForestComputed:    "forest_computed",
	EvForestCacheHit:    "forest_cache_hit",
	EvForestInvalidated: "forest_invalidated",
	EvTransferBooked:    "transfer_booked",
	EvRequestSatisfied:  "request_satisfied",
	EvItemDead:          "item_dead",
	EvEpochReplan:       "epoch_replan",
}

// String returns the snake_case event name used in JSONL traces.
func (k EventKind) String() string {
	if n, ok := eventKindNames[k]; ok {
		return n
	}
	return "unknown"
}

// MarshalJSON renders the kind as its name.
func (k EventKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// Reason qualifies an event (invalidations and item deaths).
type Reason uint8

// The reasons.
const (
	ReasonNone Reason = iota
	// ReasonOwner: the committed item's own forest is always dropped (it
	// gained a holder, so its labels can improve).
	ReasonOwner
	// ReasonConflict: a committed transfer overlapped a resource the
	// cached forest was counting on. These are the invalidations
	// Stats.Invalidations counts.
	ReasonConflict
	// ReasonParanoid: paranoid mode drops every cached forest on every
	// commit.
	ReasonParanoid
	// ReasonNoOpenRequests: every request of the item is satisfied or
	// closed by a late copy.
	ReasonNoOpenRequests
	// ReasonUnsatisfiable: the item has open requests but no satisfiable
	// destination in the current resource state.
	ReasonUnsatisfiable
	// ReasonFloor: the planning floor advanced past a hop the cached
	// forest had planned, so the forest may no longer be achievable
	// (incremental epochs carry the plan cache across floor advances).
	ReasonFloor
)

var reasonNames = map[Reason]string{
	ReasonNone:           "",
	ReasonOwner:          "owner",
	ReasonConflict:       "conflict",
	ReasonParanoid:       "paranoid",
	ReasonNoOpenRequests: "no_open_requests",
	ReasonUnsatisfiable:  "unsatisfiable",
	ReasonFloor:          "floor",
}

// String returns the snake_case reason name ("" for none).
func (r Reason) String() string { return reasonNames[r] }

// MarshalJSON renders the reason as its name.
func (r Reason) MarshalJSON() ([]byte, error) { return json.Marshal(r.String()) }

// Event is one structured scheduling occurrence. Only the fields the kind
// documents are meaningful; the rest are zero.
type Event struct {
	Kind EventKind `json:"kind"`
	// At is a simulation instant in nanoseconds (the scheduler's clock,
	// not wall time).
	At int64 `json:"at,omitempty"`
	// Item, Req, Link, and Machine identify model entities.
	Item    int `json:"item"`
	Req     int `json:"req,omitempty"`
	Link    int `json:"link,omitempty"`
	Machine int `json:"machine,omitempty"`
	// N is a generic count (candidates, batch size, aborted transfers).
	N int `json:"n,omitempty"`
	// Value is a generic magnitude (seconds of slack or duration).
	Value  float64 `json:"value,omitempty"`
	Reason Reason  `json:"reason,omitempty"`
}

// Sink receives emitted events. Implementations need not be goroutine-safe
// when driven through a Tracer (the tracer serializes); MemorySink and
// JSONLSink lock anyway so they are safe standalone.
type Sink interface {
	Emit(Event)
}

// Discard drops every event.
var Discard Sink = discardSink{}

type discardSink struct{}

func (discardSink) Emit(Event) {}

// MemorySink retains every event in order; for tests and the trace/stats
// equivalence oracle.
type MemorySink struct {
	mu     sync.Mutex
	events []Event
}

// Emit appends the event.
func (m *MemorySink) Emit(e Event) {
	m.mu.Lock()
	m.events = append(m.events, e)
	m.mu.Unlock()
}

// Events returns a copy of everything emitted so far.
func (m *MemorySink) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Event(nil), m.events...)
}

// JSONLSink writes one JSON object per event. Writes are buffered; call
// Close (or Flush) when done. The first write error is sticky and
// reported by Close.
type JSONLSink struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewJSONLSink returns a sink writing JSONL to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	return &JSONLSink{bw: bw, enc: json.NewEncoder(bw)}
}

// Emit encodes the event as one line.
func (s *JSONLSink) Emit(e Event) {
	s.mu.Lock()
	if s.err == nil {
		s.err = s.enc.Encode(e)
	}
	s.mu.Unlock()
}

// Close flushes the buffer and returns the first error encountered. It
// does not close the underlying writer.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.bw.Flush(); s.err == nil {
		s.err = err
	}
	return s.err
}

// Tee returns a sink fanning every event out to each of sinks in order.
// Nil sinks are skipped; with zero (or all-nil) sinks the result behaves
// like Discard. A single non-nil sink is returned unwrapped.
func Tee(sinks ...Sink) Sink {
	kept := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return Discard
	case 1:
		return kept[0]
	}
	return teeSink(kept)
}

type teeSink []Sink

func (t teeSink) Emit(e Event) {
	for _, s := range t {
		s.Emit(e)
	}
}

// DefaultRingSize is how many recent events a Tracer retains for
// post-mortem inspection.
const DefaultRingSize = 4096

// Tracer emits scheduling events: each event goes to the sink (if any) and
// into a fixed ring buffer of recent events. A nil *Tracer is the disabled
// tracer — Emit returns immediately — and instrumented code guards event
// construction with Enabled so a disabled run never even builds the Event
// value (the fast path the BenchmarkScheduleWithPlanCache acceptance bound
// holds against).
type Tracer struct {
	mu      sync.Mutex
	sink    Sink
	ring    []Event
	next    int
	total   uint64
	dropped uint64

	// droppedCounter, when set (NewTraced wires it to the registry's
	// trace.dropped_events_total), mirrors the dropped count into the
	// metrics snapshot so ring truncation is visible alongside every
	// other metric.
	droppedCounter *Counter
}

// NewTracer returns a tracer with the given ring capacity (DefaultRingSize
// when ≤ 0) forwarding to sink (which may be nil to only ring-buffer).
func NewTracer(ringSize int, sink Sink) *Tracer {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	return &Tracer{sink: sink, ring: make([]Event, 0, ringSize)}
}

// Enabled reports whether events will be recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit records one event. Safe on a nil receiver (no-op) and for
// concurrent use.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, e)
	} else {
		t.ring[t.next] = e
		t.next = (t.next + 1) % cap(t.ring)
		t.dropped++
		t.droppedCounter.Inc()
	}
	t.total++
	if t.sink != nil {
		t.sink.Emit(e)
	}
	t.mu.Unlock()
}

// Total returns how many events were emitted over the tracer's lifetime
// (zero on a nil receiver).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns how many events have been overwritten out of the ring —
// emitted, forwarded to the sink, but no longer retrievable via Recent.
// Zero on a nil receiver.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// RingSize returns the ring capacity (zero on a nil receiver).
func (t *Tracer) RingSize() int {
	if t == nil {
		return 0
	}
	return cap(t.ring)
}

// Recent returns the ring-buffered events, oldest first (nil on a nil
// receiver).
func (t *Tracer) Recent() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	return append(out, t.ring[:t.next]...)
}
