// Package lifecycle is the admission service's request-scoped audit
// pipeline: one wide, schema-versioned record per admission decision,
// carrying the submission's whole lifecycle timeline (received → enqueued
// → epoch-start → planned → decided → settled, on both the virtual and the
// wall clock), the context at each hop (intake queue depth at arrival,
// epoch path, batch size, replayed-transfer count), and the outcome detail
// (per-request verdicts with blame, the retry-after of a shed submission).
//
// Records are emitted as JSONL — one line per decision, canonical field
// order — and kept in memory indexed by ticket, so a running service can
// answer "why was request 4711 rejected and how long did it queue" live
// (GET /v1/requests/{id}/trace), stream the full log (GET /v1/audit), and
// persist it (stagesvc -audit-out). In deterministic mode (the virtual
// clock) every wall-clock field is omitted, which makes the audit stream
// byte-stable across replays of the same canonical trace — the property
// the replay golden test pins.
//
// The recorder also aggregates: every decided request feeds a
// per-priority-class decision-latency histogram plus live p50/p99 gauges
// (via obs.HistogramSnapshot.Quantile), and an optional SLO budget counts
// violations in serve.slo_decision_latency_violations_total. A nil
// *Recorder is the disabled state: every method no-ops, so the admission
// hot path stays allocation-free when auditing is off.
package lifecycle

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"datastaging/internal/obs"
)

// SchemaVersion is stamped into every record; consumers reject lines whose
// schema they do not understand instead of misparsing them.
const SchemaVersion = 1

// Kind classifies a record.
type Kind string

const (
	// KindDecision: the submission's first verdict, assigned by its
	// admission epoch.
	KindDecision Kind = "decision"
	// KindRevision: a later epoch changed an earlier verdict (late
	// admission; a preemption in audit files from services that still
	// had one).
	KindRevision Kind = "revision"
	// KindBackpressure: the submission was shed at the door with a full
	// intake queue (HTTP 429); it never received a ticket.
	KindBackpressure Kind = "backpressure"
)

// The lifecycle stages, in timeline order.
const (
	StageReceived   = "received"
	StageEnqueued   = "enqueued"
	StageEpochStart = "epoch_start"
	StagePlanned    = "planned"
	StageDecided    = "decided"
	StageSettled    = "settled"
)

// Hop is one timeline entry: where the submission was at a virtual
// instant, and — in wall-clock mode — how many wall seconds after receipt
// it got there. WallS is omitted in deterministic mode so replayed audit
// streams are byte-stable.
type Hop struct {
	Stage string `json:"stage"`
	// V is the virtual instant, nanoseconds since the scheduling epoch.
	V int64 `json:"v"`
	// WallS is wall-clock seconds since the received hop (0 there).
	WallS float64 `json:"wallS,omitempty"`
}

// RequestOutcome is the verdict of one request of the submission.
type RequestOutcome struct {
	Item     int    `json:"item"`
	Index    int    `json:"index"`
	Machine  int    `json:"machine"`
	Priority int    `json:"priority"`
	Status   string `json:"status"`
	Deadline int64  `json:"deadline"`
	// Completion is the committed delivery instant (admitted only).
	Completion int64 `json:"completion,omitempty"`
	// Reason classifies a rejection (or, in older files, a preemption).
	Reason string `json:"reason,omitempty"`
	// BlamedLink is the explain blame of a starved rejection (-1 none).
	BlamedLink int `json:"blamedLink"`
}

// Record is one wide audit event: everything known about one admission
// decision, on one JSONL line.
type Record struct {
	Schema int    `json:"schema"`
	Seq    int    `json:"seq"`
	Kind   Kind   `json:"kind"`
	Ticket string `json:"ticket,omitempty"`
	// Item is the scenario item id assigned at admission (-1 for
	// backpressure records, which never got one).
	Item int    `json:"item"`
	Name string `json:"name,omitempty"`
	// Timeline is the lifecycle, in stage order with non-decreasing
	// virtual and wall stamps.
	Timeline []Hop `json:"timeline"`
	// QueueDepth is the intake depth when the submission arrived (the
	// number of submissions already pending ahead of it).
	QueueDepth int `json:"queueDepth"`
	// Epoch context: the ordinal and instant of the deciding admission
	// epoch, whether it replanned incrementally or via full history
	// replay, how many submissions flushed with this one, and the
	// full-replay cost actually paid.
	Epoch             int    `json:"epoch,omitempty"`
	EpochAt           int64  `json:"epochAt,omitempty"`
	EpochPath         string `json:"epochPath,omitempty"`
	BatchSize         int    `json:"batchSize,omitempty"`
	ReplayedTransfers int    `json:"replayedTransfers,omitempty"`
	DeltaItems        int    `json:"deltaItems,omitempty"`
	// Status aggregates the per-request verdicts (admitted / rejected; a
	// "preempted" status decodes from older files), or "backpressure" for
	// a shed submission.
	Status   string           `json:"status"`
	Requests []RequestOutcome `json:"requests,omitempty"`
	// ObjectiveDelta is the weighted-objective gain of a kept preemption
	// displacement. Nothing writes it any more (an admit is final); it
	// still decodes from audit files of services that had preemption.
	ObjectiveDelta float64 `json:"objectiveDelta,omitempty"`
	// RetryAfterS echoes the backpressure retry hint, seconds.
	RetryAfterS float64 `json:"retryAfterS,omitempty"`
	// Shard is the admission shard that decided the submission, present
	// only when the record came from a sharded service (stagesvc -shards):
	// several per-shard engines share one recorder there, and machine and
	// link indices inside the record are local to this shard's projected
	// sub-network.
	Shard *int `json:"shard,omitempty"`
	// DecisionLatencyS is the wall-clock seconds from receipt to verdict.
	// Omitted in deterministic mode (see DecisionLatency).
	DecisionLatencyS float64 `json:"decisionLatencyS,omitempty"`
}

// DecisionLatency returns the latency the per-class histograms observe
// for this record: the wall-clock receipt→verdict duration when recorded,
// otherwise the virtual queue wait (epoch instant minus received instant)
// — the deterministic stand-in a virtual-clock run measures. Zero when the
// record carries neither (backpressure).
func (r *Record) DecisionLatency() float64 {
	if r.DecisionLatencyS > 0 {
		return r.DecisionLatencyS
	}
	if len(r.Timeline) == 0 || r.EpochAt == 0 {
		return 0
	}
	if d := r.EpochAt - r.Timeline[0].V; d > 0 {
		return float64(d) / float64(time.Second)
	}
	return 0
}

// knownStatuses mirrors serve's verdict vocabulary without importing it
// (serve imports lifecycle).
var knownStatuses = map[string]bool{
	"queued": true, "admitted": true, "rejected": true,
	"preempted": true, "backpressure": true,
}

// Validate checks the record against the schema contract the audit smoke
// validates on every line: version match, known kind and status, a
// non-empty timeline with canonical stage order and monotone virtual and
// wall stamps, and per-request outcomes with known statuses.
func (r *Record) Validate() error {
	if r.Schema != SchemaVersion {
		return fmt.Errorf("lifecycle: schema %d, want %d", r.Schema, SchemaVersion)
	}
	switch r.Kind {
	case KindDecision, KindRevision, KindBackpressure:
	default:
		return fmt.Errorf("lifecycle: unknown kind %q", r.Kind)
	}
	if !knownStatuses[r.Status] {
		return fmt.Errorf("lifecycle: unknown status %q", r.Status)
	}
	if len(r.Timeline) == 0 {
		return fmt.Errorf("lifecycle: empty timeline")
	}
	for i, hop := range r.Timeline {
		if hop.Stage == "" {
			return fmt.Errorf("lifecycle: timeline[%d] has no stage", i)
		}
		if i == 0 {
			continue
		}
		prev := r.Timeline[i-1]
		if hop.V < prev.V {
			return fmt.Errorf("lifecycle: timeline %s..%s goes back in virtual time (%d < %d)",
				prev.Stage, hop.Stage, hop.V, prev.V)
		}
		if hop.WallS < prev.WallS {
			return fmt.Errorf("lifecycle: timeline %s..%s goes back in wall time (%g < %g)",
				prev.Stage, hop.Stage, hop.WallS, prev.WallS)
		}
	}
	if r.Kind != KindBackpressure && r.Ticket == "" {
		return fmt.Errorf("lifecycle: %s record without a ticket", r.Kind)
	}
	for i, rq := range r.Requests {
		if !knownStatuses[rq.Status] {
			return fmt.Errorf("lifecycle: request %d has unknown status %q", i, rq.Status)
		}
	}
	return nil
}

// Encode renders the record as its canonical JSONL line (single line,
// fixed field order, trailing newline) — the exact bytes the sink stream,
// the bulk export, and the byte-stability test all share.
func Encode(r *Record) ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Options configures a Recorder.
type Options struct {
	// Obs receives the per-class latency histograms, quantile gauges, SLO
	// counters, and the audit.records_total counter. May be nil.
	Obs *obs.Obs
	// Sink, when non-nil, receives every record as a JSONL line at append
	// time (stagesvc -audit-out). Write errors are sticky; see SinkErr.
	Sink io.Writer
	// Deterministic omits every wall-clock field so the stream is
	// byte-stable across replays. serve.New forces it on for
	// virtual-clock engines.
	Deterministic bool
	// SLO is the per-request decision-latency budget; a decided request
	// whose latency exceeds it increments
	// serve.slo_decision_latency_violations_total (and its class
	// counter). Zero disables SLO accounting.
	SLO time.Duration
}

// classInst is the per-priority-class instrument set.
type classInst struct {
	hist       *obs.Histogram
	p50, p99   *obs.Gauge
	violations *obs.Counter
}

// Recorder is the audit pipeline: appends records, streams them to the
// sink, indexes them by ticket, and feeds the per-class latency
// aggregates. All methods are safe on a nil receiver (the disabled state)
// and safe for concurrent use.
type Recorder struct {
	mu   sync.Mutex
	opts Options

	seq      int
	all      []*Record
	byTicket map[string][]*Record
	sink     *bufio.Writer
	sinkErr  error

	classes     map[int]*classInst
	mRecords    *obs.Counter
	mViolations *obs.Counter
}

// New returns an enabled recorder.
func New(opts Options) *Recorder {
	r := &Recorder{
		opts:     opts,
		byTicket: make(map[string][]*Record),
		classes:  make(map[int]*classInst),
		mRecords: opts.Obs.Counter("audit.records_total"),
		mViolations: opts.Obs.Counter(
			"serve.slo_decision_latency_violations_total"),
	}
	if opts.Sink != nil {
		r.sink = bufio.NewWriter(opts.Sink)
	}
	return r
}

// Enabled reports whether the recorder records anything.
func (r *Recorder) Enabled() bool { return r != nil }

// SetDeterministic switches wall-field omission; serve.New calls it so the
// stream's determinism always matches the engine's clock mode.
func (r *Recorder) SetDeterministic(on bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.opts.Deterministic = on
	r.mu.Unlock()
}

// Deterministic reports whether wall-clock fields are omitted.
func (r *Recorder) Deterministic() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.opts.Deterministic
}

// Append stamps the record (schema, sequence number; wall fields cleared
// in deterministic mode), stores it, streams it to the sink, and folds
// every decided request into its priority class's latency histogram,
// quantile gauges, and SLO counters. The record must not be mutated by the
// caller afterwards.
func (r *Recorder) Append(rec *Record) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rec.Schema = SchemaVersion
	rec.Seq = r.seq
	r.seq++
	if r.opts.Deterministic {
		rec.DecisionLatencyS = 0
		for i := range rec.Timeline {
			rec.Timeline[i].WallS = 0
		}
	}
	r.all = append(r.all, rec)
	if rec.Ticket != "" {
		r.byTicket[rec.Ticket] = append(r.byTicket[rec.Ticket], rec)
	}
	r.mRecords.Inc()
	if r.sink != nil && r.sinkErr == nil {
		line, err := Encode(rec)
		if err == nil {
			_, err = r.sink.Write(line)
		}
		if err == nil {
			err = r.sink.Flush()
		}
		r.sinkErr = err
	}
	if rec.Kind != KindDecision {
		// Backpressure sheds never got a decision; revisions re-report a
		// ticket whose decision latency was already observed.
		return
	}
	lat := rec.DecisionLatency()
	for i := range rec.Requests {
		r.observeLocked(rec.Requests[i].Priority, lat)
	}
}

// observeLocked feeds one decided request's latency into its class
// instruments. Call with r.mu held.
func (r *Recorder) observeLocked(class int, lat float64) {
	ci, ok := r.classes[class]
	if !ok {
		ci = &classInst{
			hist: r.opts.Obs.Histogram(
				fmt.Sprintf("serve.decision_latency_class%d_seconds", class),
				obs.DurationBuckets),
			p50: r.opts.Obs.Gauge(
				fmt.Sprintf("serve.decision_latency_class%d_p50_seconds", class)),
			p99: r.opts.Obs.Gauge(
				fmt.Sprintf("serve.decision_latency_class%d_p99_seconds", class)),
			violations: r.opts.Obs.Counter(
				fmt.Sprintf("serve.slo_decision_latency_class%d_violations_total", class)),
		}
		r.classes[class] = ci
	}
	ci.hist.Observe(lat)
	if ci.hist != nil {
		s := ci.hist.Snapshot()
		ci.p50.Set(s.Quantile(0.50))
		ci.p99.Set(s.Quantile(0.99))
	}
	if r.opts.SLO > 0 && lat > r.opts.SLO.Seconds() {
		r.mViolations.Inc()
		ci.violations.Inc()
	}
}

// Len returns the number of records appended so far.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.all)
}

// SinkErr reports the first sink write error, if any.
func (r *Recorder) SinkErr() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sinkErr
}

// ForTicket returns every record of one ticket, in append order. Nil when
// the ticket has none (or the recorder is disabled).
func (r *Recorder) ForTicket(id string) []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	recs := r.byTicket[id]
	if len(recs) == 0 {
		return nil
	}
	out := make([]Record, len(recs))
	for i, rec := range recs {
		out[i] = *rec
	}
	return out
}

// Records returns a copy of every record, in sequence order.
func (r *Recorder) Records() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Record, len(r.all))
	for i, rec := range r.all {
		out[i] = *rec
	}
	return out
}

// WriteJSONL streams every record to w as canonical JSONL, the GET
// /v1/audit bulk export. The bytes are identical to what a sink received
// line by line.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	for _, rec := range r.Records() {
		line, err := Encode(&rec)
		if err != nil {
			return err
		}
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONL parses an audit stream (the sink file or the /v1/audit body),
// validating every line. It is the strict counterpart of WriteJSONL.
func ReadJSONL(rd io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("lifecycle: line %d: %w", len(out), err)
		}
		if err := rec.Validate(); err != nil {
			return nil, fmt.Errorf("lifecycle: line %d: %w", len(out), err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ClassSummary aggregates the audit stream per priority class: how many
// requests of that class were offered, how each fared after every
// revision, and the decision-latency quantiles (interpolated from
// DurationBuckets exactly like the /metrics gauges).
type ClassSummary struct {
	Class         int
	Requests      int
	Admitted      int
	Rejected      int
	AdmissionRate float64
	P50, P99      time.Duration
}

// Summarize folds an audit stream into per-class summaries, sorted by
// class. Verdicts come from each ticket's latest record (so a late
// admission counts at its final state); latencies from each
// ticket's decision record (the wait the submitter actually experienced).
func Summarize(recs []Record) []ClassSummary {
	latest := make(map[string]*Record)
	latency := make(map[string]float64)
	for i := range recs {
		rec := &recs[i]
		if rec.Kind == KindBackpressure {
			continue
		}
		if cur, ok := latest[rec.Ticket]; !ok || rec.Seq >= cur.Seq {
			latest[rec.Ticket] = rec
		}
		if rec.Kind == KindDecision {
			latency[rec.Ticket] = rec.DecisionLatency()
		}
	}
	counts := make(map[int]*ClassSummary)
	lats := make(map[int][]float64)
	class := func(p int) *ClassSummary {
		cs, ok := counts[p]
		if !ok {
			cs = &ClassSummary{Class: p}
			counts[p] = cs
		}
		return cs
	}
	for ticket, rec := range latest {
		for _, rq := range rec.Requests {
			cs := class(rq.Priority)
			cs.Requests++
			switch rq.Status {
			case "admitted":
				cs.Admitted++
			default:
				cs.Rejected++
			}
			lats[rq.Priority] = append(lats[rq.Priority], latency[ticket])
		}
	}
	out := make([]ClassSummary, 0, len(counts))
	for p, cs := range counts {
		if cs.Requests > 0 {
			cs.AdmissionRate = float64(cs.Admitted) / float64(cs.Requests)
		}
		s := obs.SnapshotValues(obs.DurationBuckets, lats[p])
		cs.P50 = time.Duration(s.Quantile(0.50) * float64(time.Second))
		cs.P99 = time.Duration(s.Quantile(0.99) * float64(time.Second))
		out = append(out, *cs)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Class < out[b].Class })
	return out
}
