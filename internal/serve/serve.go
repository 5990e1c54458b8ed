// Package serve is the online admission service: the bridge from "a client
// submits a data request" to "the scheduler admits or rejects it" while the
// system runs. It owns a live scheduling world (a dynamic.Engine), accepts
// Submit calls from many goroutines, group-commits them into admission
// epochs — the engine flushes whenever it is idle, so a lone arrival is
// planned at once and a batch is whatever arrived behind the running epoch —
// and per epoch runs the configured heuristic incrementally with the
// already-committed schedule locked in, exactly the paper's §4.5 rule that
// new requests are planned when they arrive and scheduled transfers remain
// in the system.
//
// Each submission receives a per-request verdict: admitted (with the
// committed route and delivery instant) or rejected (with an explain blame:
// starved-by-contention and the most-obstructed link, or
// infeasible-even-alone). An admit is final: no later arrival displaces a
// committed transfer. A rejected request can still late-admit when a later
// epoch's replan finds room for it.
//
// The intake queue is bounded: when it is full, Submit fails fast with
// ErrOverloaded and the HTTP layer translates that into 429 + Retry-After,
// so overload sheds load at the door instead of growing latency without
// bound. Draining stops intake (ErrDraining → 503), completes the in-flight
// epoch, and leaves the committed schedule queryable.
//
// Time is pluggable: in wall-clock mode the epoch instant is the elapsed
// run time scaled by TimeScale; in virtual-clock mode time only moves via
// Advance, which makes runs fully deterministic — the end-to-end test
// replays an arrival trace through HTTP and checks the final schedule is
// bit-identical to dynamic.Simulate replaying the same trace offline.
package serve

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"datastaging/internal/core"
	"datastaging/internal/dynamic"
	"datastaging/internal/explain"
	"datastaging/internal/model"
	"datastaging/internal/obs"
	"datastaging/internal/obs/introspect"
	"datastaging/internal/obs/lifecycle"
	"datastaging/internal/scenario"
	"datastaging/internal/simtime"
	"datastaging/internal/state"
)

// Sentinel intake errors. Anything else returned by Submit is a validation
// failure of the submission itself.
var (
	// ErrOverloaded: the bounded intake queue is full; retry later.
	ErrOverloaded = errors.New("serve: intake queue full")
	// ErrDraining: the engine is shutting down and accepts no new work.
	ErrDraining = errors.New("serve: draining, intake closed")
)

// queueWaitBuckets resolves the sub-millisecond waits a work-conserving loop
// produces, in seconds: 50µs to 100ms.
var queueWaitBuckets = []float64{50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 100e-3}

// retryAfterSeconds is the backoff hint a shed submission receives, both as
// the HTTP Retry-After header and in its backpressure audit record.
const retryAfterSeconds = 1

// Options configures an admission engine.
type Options struct {
	// Config is the heuristic/criterion pair each admission epoch runs
	// (Config.Obs, when set, receives all serve.* metrics too).
	Config core.Config
	// MaxBatch is the virtual-clock size trigger: with VirtualClock, Submit
	// flushes the intake queue into an epoch when this many submissions are
	// pending (default 16). The wall-clock loop flushes whatever is queued
	// and never consults it.
	MaxBatch int
	// QueueCap bounds the intake queue; a full queue rejects submissions
	// with ErrOverloaded (default 256).
	QueueCap int
	// VirtualClock freezes time: the current instant only moves via
	// Advance, and batches flush on MaxBatch, Advance, Flush, or Drain.
	// Deterministic; used by tests and trace replay.
	VirtualClock bool
	// TimeScale maps wall time to simulated time in wall-clock mode:
	// simulated = elapsed * TimeScale (default 1). A scale of 60 makes one
	// wall second one simulated minute, so a day-long scenario can be
	// driven in minutes.
	TimeScale float64
	// Intro, when non-nil, receives the live epoch phase for /runinfo.
	Intro *introspect.Server
	// Audit, when non-nil, receives one lifecycle record per admission
	// decision (plus revisions and backpressure sheds). A nil recorder
	// disables auditing entirely; the admission path then skips every
	// audit hook, keeping steady-state allocations unchanged. With
	// VirtualClock the recorder is forced deterministic so replayed audit
	// streams are byte-stable.
	Audit *lifecycle.Recorder
	// TicketPrefix prefixes every minted ticket id (e.g. "s0-" yields
	// "s0-r-0"). A front-end that multiplexes several engines behind one
	// API (internal/shard) uses it to keep ids globally unique and
	// routable back to their engine. Empty for the classic single-engine
	// service, so existing ids ("r-0") are unchanged.
	TicketPrefix string
	// Shard, when non-nil, tags every audit record this engine emits with
	// the shard index, so a shared recorder's stream stays attributable.
	Shard *int
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 16
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 256
	}
	if o.TimeScale <= 0 {
		o.TimeScale = 1
	}
	return o
}

// Ticket tracks one submission through the engine. All state is guarded by
// the engine; read it through View.
type Ticket struct {
	eng *Engine
	id  string
	sub Submission

	done chan struct{} // closed at the first verdict

	// Guarded by eng.mu.
	arrived  simtime.Instant
	epoch    simtime.Instant
	item     model.ItemID // -1 while queued
	status   Status
	verdicts []RequestVerdict
	route    []state.Transfer
	resolved bool

	// arrivedWall is the wall enqueue time: the base of the audit timeline's
	// offsets and of the wall-clock queue-wait histogram.
	arrivedWall time.Time
	queueDepth  int // intake depth when the submission arrived (audit)
}

// ID returns the server-assigned ticket id.
func (t *Ticket) ID() string { return t.id }

// Done is closed when the ticket's admission epoch has run and the first
// verdict is available. A rejection may still turn into a late admission;
// View always returns the current one.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// View returns a consistent snapshot of the ticket.
func (t *Ticket) View() TicketView {
	t.eng.mu.Lock()
	defer t.eng.mu.Unlock()
	return t.viewLocked()
}

func (t *Ticket) viewLocked() TicketView {
	v := TicketView{
		ID:      t.id,
		Status:  t.status,
		Item:    int(t.item),
		Epoch:   Instant(t.epoch),
		Arrived: Instant(t.arrived),
	}
	v.Requests = append(v.Requests, t.verdicts...)
	v.Route = append(v.Route, t.route...)
	return v
}

// Engine is the concurrency-safe admission engine. Create with New, feed
// with Submit (any number of goroutines), and stop with Drain.
type Engine struct {
	opts  Options
	o     *obs.Obs
	intro *introspect.Server
	audit *lifecycle.Recorder
	start time.Time

	mAdmitted, mRejected, mBackpressure, mEpochs *obs.Counter
	mEpochsFull                                  *obs.Counter
	gQueue                                       *obs.Gauge
	hBatch, hQueueWait                           *obs.Histogram
	epochTimer                                   *obs.PhaseTimer

	mu        sync.Mutex
	dyn       *dynamic.Engine
	sc        scenario.Scenario // private copy; Items grows as submissions are admitted
	diag      explain.Diagnoser // the idle world every rejection's blame is computed against
	queue     []*Ticket
	unsettled []*Ticket // decided tickets with an unsatisfied request (late-admission candidates)
	tickets   map[string]*Ticket
	nextID    int
	epochs    int
	fatal     error // first replan failure; the engine wedges closed

	// totalReqs is the request count across every item the engine has ever
	// seen (base scenario plus all flushed submissions), maintained
	// incrementally so publishing a snapshot never walks the item list.
	totalReqs int
	// Incremental weighted-objective tracker: satValue is the weighted sum
	// over the first satConsumed entries of satState's satisfaction log.
	// weightedValueLocked folds in only the log suffix each call and
	// restarts from zero when the dynamic engine swapped in a rebuilt
	// state (full replay), whose fresh log re-derives the whole sum.
	satState    *state.State
	satConsumed int
	satValue    float64

	// Read-side state, loaded lock-free by Schedule, Info, and Now so
	// heavy polling never contends with admission. snap is the immutable
	// world published at the end of every epoch; the scalars move outside
	// epochs too (intake, clock, drain).
	snap     atomic.Pointer[worldSnap]
	qdepth   atomic.Int64
	vnow     atomic.Int64 // virtual-clock current instant (simtime.Instant)
	draining atomic.Bool

	kick    chan struct{} // wall loop wakeup: "the queue may be non-empty"
	drainCh chan struct{}
	stopped chan struct{} // wall loop exited
}

// worldSnap is one consistent, immutable view of the committed world,
// published with an atomic pointer swap at the end of every admission epoch
// (and once at construction). Readers observe bounded staleness: while an
// epoch is in flight they see the previous epoch's world, never a torn
// intermediate.
type worldSnap struct {
	epochs        int
	items         int
	totalReqs     int
	satisfied     int
	weightedValue float64
	// transfers is a cap-clamped window of the committed history. The
	// dynamic engine only ever appends beyond this window's length (or
	// swaps in a freshly-built slice on history rewrites), so the window's
	// contents never change after publication.
	transfers []state.Transfer
}

// publishLocked snapshots the current world and swaps it in for readers.
// Call with e.mu held (New calls it before the engine escapes, which is
// just as exclusive).
func (e *Engine) publishLocked() {
	trs := e.dyn.Transfers()
	e.snap.Store(&worldSnap{
		epochs:        e.epochs,
		items:         len(e.sc.Items),
		totalReqs:     e.totalReqs,
		satisfied:     len(e.dyn.Satisfied()),
		weightedValue: e.weightedValueLocked(),
		transfers:     trs[:len(trs):len(trs)],
	})
}

// New builds an engine over a base scenario, which contributes the network,
// the garbage-collection policy, and any items already known at time zero
// (they are planned in the first epoch alongside the first batch). The base
// scenario is copied; the caller's value is never mutated.
func New(base *scenario.Scenario, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	if err := base.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		opts:    opts,
		o:       opts.Config.Obs,
		intro:   opts.Intro,
		audit:   opts.Audit,
		start:   time.Now(),
		sc:      *base,
		tickets: make(map[string]*Ticket),
		kick:    make(chan struct{}, 1),
		drainCh: make(chan struct{}),
		stopped: make(chan struct{}),
	}
	// Deep-copy the item list: flushes append to it.
	e.sc.Items = append([]model.Item(nil), base.Items...)
	dyn, err := dynamic.NewEngine(&e.sc, opts.Config)
	if err != nil {
		return nil, err
	}
	e.dyn = dyn
	if opts.VirtualClock {
		// Virtual-clock runs must replay byte-identically; strip wall-clock
		// fields from every audit record.
		e.audit.SetDeterministic(true)
	}

	e.mAdmitted = e.o.Counter("serve.admitted_total")
	e.mEpochsFull = e.o.Counter("serve.epochs_full_total")
	e.mRejected = e.o.Counter("serve.rejected_total")
	e.mBackpressure = e.o.Counter("serve.rejected_backpressure_total")
	e.mEpochs = e.o.Counter("serve.epochs_total")
	e.gQueue = e.o.Gauge("serve.queue_depth")
	e.hBatch = e.o.Histogram("serve.batch_size", []float64{1, 2, 4, 8, 16, 32, 64, 128})
	e.hQueueWait = e.o.Histogram("serve.layer_queue_wait_seconds", queueWaitBuckets)
	e.epochTimer = e.o.Phase("serve.epoch")
	e.intro.SetPhase("idle")
	e.totalReqs = (&e.sc).NumRequests()
	e.publishLocked() // epoch-zero world for readers that poll before the first flush

	if opts.VirtualClock {
		close(e.stopped) // no background loop to wait for
	} else {
		go e.loop()
	}
	return e, nil
}

// Now returns the engine's current simulated instant. Lock-free: the
// virtual clock is an atomic, wall time is arithmetic on immutable fields.
func (e *Engine) Now() simtime.Instant {
	if e.opts.VirtualClock {
		return simtime.Instant(e.vnow.Load())
	}
	return simtime.At(time.Duration(float64(time.Since(e.start)) * e.opts.TimeScale))
}

// Submit validates the submission and places it on the intake queue,
// returning a ticket immediately. The verdict arrives when the submission's
// admission epoch flushes (Done). Errors: a validation error (malformed
// submission), ErrOverloaded (queue full — back off and retry), or
// ErrDraining.
func (e *Engine) Submit(sub Submission) (*Ticket, error) {
	if err := sub.validate(e.sc.Network.NumMachines()); err != nil {
		return nil, err
	}
	e.mu.Lock()
	if e.draining.Load() || e.fatal != nil {
		e.mu.Unlock()
		return nil, ErrDraining
	}
	if len(e.queue) >= e.opts.QueueCap {
		e.mBackpressure.Inc()
		if e.audit.Enabled() {
			e.audit.Append(&lifecycle.Record{
				Kind: lifecycle.KindBackpressure,
				Item: -1,
				Name: sub.Name,
				Timeline: []lifecycle.Hop{
					{Stage: lifecycle.StageReceived, V: int64(e.Now())},
				},
				QueueDepth:  len(e.queue),
				Status:      "backpressure",
				RetryAfterS: retryAfterSeconds,
				Shard:       e.opts.Shard,
			})
		}
		e.mu.Unlock()
		return nil, ErrOverloaded
	}
	t := e.newTicketLocked(sub, e.Now())
	e.queue = append(e.queue, t)
	e.tickets[t.id] = t
	e.gQueue.Set(float64(len(e.queue)))
	e.qdepth.Store(int64(len(e.queue)))
	if e.opts.VirtualClock && len(e.queue) >= e.opts.MaxBatch {
		e.flushLocked(e.Now())
	}
	e.mu.Unlock()
	if !e.opts.VirtualClock {
		select {
		case e.kick <- struct{}{}:
		default:
		}
	}
	return t, nil
}

// newTicketLocked mints the next ticket for a submission received at
// instant at. Every ticket the engine ever issues — queued by Submit or
// offered by Propose — is built here, so both carry the same stamps.
func (e *Engine) newTicketLocked(sub Submission, at simtime.Instant) *Ticket {
	t := &Ticket{
		eng:     e,
		id:      fmt.Sprintf("%sr-%d", e.opts.TicketPrefix, e.nextID),
		sub:     sub,
		done:    make(chan struct{}),
		arrived: at,
		item:    -1,
		status:  StatusQueued,

		arrivedWall: time.Now(),
		queueDepth:  len(e.queue),
	}
	e.nextID++
	return t
}

// SubmitWait is Submit plus a blocking wait for the first verdict. In
// virtual-clock mode the verdict only arrives once someone advances the
// clock or the batch reaches MaxBatch, so pair SubmitWait with a driver
// goroutine.
func (e *Engine) SubmitWait(ctx context.Context, sub Submission) (*Ticket, error) {
	t, err := e.Submit(sub)
	if err != nil {
		return nil, err
	}
	select {
	case <-t.Done():
		return t, nil
	case <-ctx.Done():
		return t, ctx.Err()
	}
}

// Advance moves the virtual clock to instant to (which must not precede the
// current instant), flushing any pending submissions first at the instant
// they arrived. Calling Advance with to equal to the current instant is a
// pure flush. Errors in wall-clock mode.
func (e *Engine) Advance(to simtime.Instant) error {
	if !e.opts.VirtualClock {
		return errors.New("serve: Advance requires the virtual clock")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	now := simtime.Instant(e.vnow.Load())
	if to.Before(now) {
		return fmt.Errorf("serve: cannot advance backwards (%v < %v)", to, now)
	}
	e.flushLocked(now)
	e.vnow.Store(int64(to))
	return e.fatal
}

// Flush forces a pending batch into an admission epoch at the current
// instant; under the virtual clock that is without waiting for MaxBatch or
// Advance.
func (e *Engine) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.flushLocked(e.Now())
	return e.fatal
}

// Drain closes intake, completes the in-flight epoch (flushing whatever is
// queued), and stops the background flusher. Safe to call more than once.
// After Drain returns, the committed schedule is final and the read-side
// accessors remain usable.
func (e *Engine) Drain(ctx context.Context) error {
	e.mu.Lock()
	if e.draining.Load() {
		e.mu.Unlock()
		select {
		case <-e.stopped:
			return e.fatal
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	e.draining.Store(true)
	if e.opts.VirtualClock {
		e.flushLocked(e.Now())
		e.mu.Unlock()
		return e.fatal
	}
	e.mu.Unlock()
	close(e.drainCh)
	select {
	case <-e.stopped:
		return e.fatal
	case <-ctx.Done():
		return ctx.Err()
	}
}

// loop is the wall-clock flusher, a group-commit loop: whenever the engine
// is idle it runs one epoch over whatever is queued, so a batch is exactly
// what arrived (or waited on e.mu) behind the previous epoch. No wake-up is
// lost: Submit appends under e.mu before its non-blocking send on the cap-1
// kick, and the loop takes e.mu after receiving, so a dropped kick always
// has a pending one behind it whose flush sees the append. Drain sets
// draining under e.mu before closing drainCh, so the final flush sees every
// accepted submission.
func (e *Engine) loop() {
	defer close(e.stopped)
	for draining := false; !draining; {
		select {
		case <-e.kick:
		case <-e.drainCh:
			draining = true
		}
		e.mu.Lock()
		e.flushLocked(e.Now())
		e.mu.Unlock()
	}
}

// epoch is one admission step in flight. planLocked opens it and exactly one
// of finishLocked or abortLocked closes it; the loop, Advance and Flush close
// it at once (flushLocked), Propose hands it to the caller still open.
//
// Invariant (recovery and leases will lean on it): plan mutates only what
// abort restores — e.sc.Items, totalReqs and the dynamic engine. Tickets
// beyond the batch's own item and epoch fields, the epoch counters, the
// audit log and the published snapshot move in finish alone, so an aborted
// epoch leaves no trace but its replans.
type epoch struct {
	at    simtime.Instant
	batch []*Ticket

	// What abort restores, taken before anything moved.
	cp            dynamic.Checkpoint
	prevItems     int
	prevTotalReqs int

	// Wall-clock stamps of the epoch's phases: the audit timeline, and the
	// base of the queue-wait histogram. In deterministic (virtual-clock)
	// mode the recorder strips them again, so capturing is harmless there.
	epochStart, planned, decided, settled time.Time
}

// flushLocked runs one admission epoch at instant at over everything
// pending: plan, then finish. Call with e.mu held.
func (e *Engine) flushLocked(at simtime.Instant) {
	if len(e.queue) == 0 || e.fatal != nil {
		return
	}
	batch := e.queue
	e.queue = nil
	e.gQueue.Set(0)
	e.qdepth.Store(0)
	defer e.epochTimer.Start().Stop()
	if ep, ok := e.planLocked(at, batch...); ok {
		e.finishLocked(&ep)
	}
}

// planLocked opens an epoch at instant at: checkpoint the world, extend the
// scenario with the batch's items, replan with the committed schedule locked
// in. False means the engine wedged (failLocked ran) and there is no epoch.
func (e *Engine) planLocked(at simtime.Instant, batch ...*Ticket) (epoch, bool) {
	ep := epoch{
		at:            at,
		batch:         batch,
		epochStart:    time.Now(),
		cp:            e.dyn.Checkpoint(),
		prevItems:     len(e.sc.Items),
		prevTotalReqs: e.totalReqs,
	}
	if e.intro != nil {
		e.intro.SetPhase(fmt.Sprintf("epoch %d @ %v (%d submissions)", e.epochs+1, at, len(batch)))
	}
	for _, t := range batch {
		id := model.ItemID(len(e.sc.Items))
		t.item = id
		t.epoch = at
		e.sc.Items = append(e.sc.Items, t.sub.item(id))
		e.totalReqs += len(t.sub.Requests)
	}
	// The engine holds &e.sc, so this is the trusted same-pointer path;
	// an error can only mean the append-only contract broke, which wedges
	// the engine like any other internal failure.
	if err := e.dyn.SetScenario(&e.sc); err != nil {
		e.failLocked(err, batch)
		return ep, false
	}
	if !e.replanLocked(&ep) {
		return ep, false
	}
	ep.planned = time.Now()
	return ep, true
}

// finishLocked keeps the epoch's plan: count the epoch, assign verdicts
// (re-settling older unsettled tickets too), publish the world, emit the
// audit records, wake the waiters.
func (e *Engine) finishLocked(ep *epoch) {
	e.epochs++
	e.mEpochs.Inc()
	e.hBatch.Observe(float64(len(ep.batch)))
	if !e.opts.VirtualClock {
		// Wall clock only: replayed /metrics must stay deterministic.
		for _, t := range ep.batch {
			e.hQueueWait.Observe(ep.epochStart.Sub(t.arrivedWall).Seconds())
		}
	}
	revised := e.settleLocked(ep.batch)
	ep.decided = time.Now()
	e.publishLocked()
	ep.settled = time.Now()
	if e.audit.Enabled() {
		e.emitAuditLocked(ep, revised)
	}
	for _, t := range ep.batch {
		if !t.resolved {
			t.resolved = true
			close(t.done)
		}
	}
	e.intro.SetPhase("idle")
}

// abortLocked discards the epoch's plan and restores the pre-plan world
// bit-identically: the appended items are truncated, the checkpoint is
// rolled back, and one replan rebuilds the exact pre-speculation schedule
// (replay and heuristics are deterministic, and the rolled-back history
// holds only transfers the pre-plan world had committed).
func (e *Engine) abortLocked(ep *epoch) {
	e.sc.Items = e.sc.Items[:ep.prevItems]
	e.totalReqs = ep.prevTotalReqs
	e.dyn.Rollback(ep.cp)
	e.replanLocked(ep)
	e.intro.SetPhase("idle")
}

// replanLocked runs one engine replan at the epoch's instant and records
// which path it took: the full-replay counter and the live /runinfo stats.
// It is the one place a replan failure wedges the engine; false reports it.
func (e *Engine) replanLocked(ep *epoch) bool {
	if _, err := e.dyn.ReplanAt(ep.at); err != nil {
		e.failLocked(err, ep.batch)
		return false
	}
	es := e.dyn.LastEpoch()
	path := "incremental"
	if es.Full {
		path = "full"
		e.mEpochsFull.Inc()
	}
	e.intro.SetStat("epoch_path", path)
	e.intro.SetStat("epoch_replay_transfers", strconv.Itoa(es.ReplayedTransfers))
	e.intro.SetStat("epoch_delta_items", strconv.Itoa(es.DeltaItems))
	return true
}

// failLocked wedges the engine after a replan failure: the batch (and any
// future submission) is rejected with the internal error, and Drain
// surfaces it.
func (e *Engine) failLocked(err error, batch []*Ticket) {
	e.fatal = err
	for _, t := range batch {
		t.status = StatusRejected
		for k, rq := range t.sub.Requests {
			t.verdicts = append(t.verdicts, RequestVerdict{
				Request:    model.RequestID{Item: t.item, Index: k},
				Machine:    rq.Machine,
				Status:     StatusRejected,
				Deadline:   rq.Deadline,
				Reason:     "internal: " + err.Error(),
				BlamedLink: -1,
			})
		}
		if !t.resolved {
			t.resolved = true
			close(t.done)
		}
	}
	e.publishLocked()
}

// weightedValueLocked returns the weighted objective over every satisfied
// request. Incremental: the state's satisfaction log is append-only, so each
// call folds in only the suffix past what the tracker already summed. A
// full-replay epoch swaps in a rebuilt state whose fresh log re-derives the
// sum from scratch (the state pointer is the generation tag), which is what
// keeps the objective correct after an aborted offer's rollback.
func (e *Engine) weightedValueLocked() float64 {
	st := e.dyn.State()
	if st == nil {
		return 0
	}
	log := st.SatisfiedLog()
	if st != e.satState || len(log) < e.satConsumed {
		e.satState, e.satConsumed, e.satValue = st, 0, 0
	}
	for _, id := range log[e.satConsumed:] {
		e.satValue += e.opts.Config.Weights.Of((&e.sc).Request(id).Priority)
	}
	e.satConsumed = len(log)
	return e.satValue
}

// settleLocked refreshes ticket verdicts against the current satisfaction
// map. New tickets (the batch) get full verdicts with an explain diagnosis
// on rejection; older tickets only transition status (late admission)
// without re-diagnosing.
//
// The old-ticket pass is incremental: committed transfers survive every
// epoch serve runs, so a fully-admitted ticket's verdicts cannot change —
// only tickets with an unsatisfied request (the unsettled list) can
// late-admit and need re-examining. That holds across a full replay too:
// serve settles after one only at the first epoch, when no ticket has been
// decided yet (abortLocked's replay restores the pre-plan world and never
// settles, and an epoch instant never precedes the floor).
//
// settleLocked returns the previously-decided tickets whose verdicts this
// epoch changed (late admission) — the revision records the audit log
// emits. Revision detection only runs when auditing is on; the returned
// slice is nil otherwise.
func (e *Engine) settleLocked(batch []*Ticket) (revised []*Ticket) {
	sat := e.dyn.Satisfied()
	st := e.dyn.State()
	auditing := e.audit.Enabled()

	keep := e.unsettled[:0]
	for _, t := range e.unsettled {
		var before []Status
		if auditing {
			before = t.verdictStatuses()
		}
		e.settleTicketLocked(t, sat, st, false)
		if auditing && t.verdictsChanged(before) {
			revised = append(revised, t)
		}
		if !e.settledForGoodLocked(t) {
			keep = append(keep, t)
		}
	}
	e.unsettled = keep
	for _, t := range batch {
		e.settleTicketLocked(t, sat, st, true)
		if !e.settledForGoodLocked(t) {
			e.unsettled = append(e.unsettled, t)
		}
	}
	return revised
}

// settledForGoodLocked reports whether no later epoch can change the
// ticket's verdicts without a history rewrite: either every request is
// admitted, or the planner has permanently retired the item (its remaining
// requests are unsatisfiable at every future floor). Either way the ticket
// leaves the unsettled list, which is what keeps the per-epoch settle cost
// proportional to the late-admission candidates instead of the run length.
func (e *Engine) settledForGoodLocked(t *Ticket) bool {
	if e.dyn.ItemRetired(t.item) {
		return true
	}
	for i := range t.verdicts {
		if t.verdicts[i].Status != StatusAdmitted {
			return false
		}
	}
	return true
}

func (e *Engine) settleTicketLocked(t *Ticket, sat map[model.RequestID]simtime.Instant,
	st *state.State, fresh bool) {

	if fresh {
		t.verdicts = make([]RequestVerdict, 0, len(t.sub.Requests))
		for k, rq := range t.sub.Requests {
			t.verdicts = append(t.verdicts, RequestVerdict{
				Request:    model.RequestID{Item: t.item, Index: k},
				Machine:    rq.Machine,
				Deadline:   rq.Deadline,
				BlamedLink: -1,
			})
		}
	}
	admitted := 0
	for k := range t.verdicts {
		v := &t.verdicts[k]
		if arr, ok := sat[v.Request]; ok {
			if !fresh && v.Status != StatusAdmitted {
				// Late admission: a replan for a later epoch found room.
				e.mAdmitted.Inc()
			}
			v.Status = StatusAdmitted
			v.Completion = Instant(arr)
			v.Reason = ""
			v.BlamedLink = -1
			admitted++
			continue
		}
		switch {
		case fresh:
			v.Status = StatusRejected
			e.mRejected.Inc()
			e.diagnoseLocked(v)
		case v.Status == StatusAdmitted:
			// An admit is final short of a link failure, which serve does
			// not inject; this only keeps a lost delivery from reading as
			// admitted.
			v.Status = StatusRejected
			v.Completion = 0
		}
	}
	t.status = StatusRejected
	if admitted > 0 {
		t.status = StatusAdmitted
	}
	t.route = st.TransfersFor(t.item)
	if fresh {
		e.mAdmitted.Add(int64(admitted))
	}
}

// diagnoseLocked fills a fresh rejection's blame via explain: the verdict
// class and, for contention, the most-obstructed link of the ideal path.
// The engine's one Diagnoser keeps the idle world across calls — rebuilding
// it per rejection, not the walk over the ideal path's links, was what made
// diagnosis expensive — so this stays inline: the ?wait=1 verdict carries
// the blame.
func (e *Engine) diagnoseLocked(v *RequestVerdict) {
	rep, err := e.diag.Diagnose(&e.sc, e.dyn.Transfers(), v.Request)
	if err != nil {
		v.Reason = "undiagnosed: " + err.Error()
		return
	}
	v.Reason = rep.Verdict.String()
	if link, _, ok := rep.BlamedLink(); ok {
		v.BlamedLink = int(link)
	}
}

// TicketView returns the current state of one submission.
func (e *Engine) TicketView(id string) (TicketView, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tickets[id]
	if !ok {
		return TicketView{}, false
	}
	return t.viewLocked(), true
}

// Schedule returns a snapshot of the committed schedule and objective.
// Lock-free: it reads the world published by the last completed epoch, so
// pollers never contend with admission. During an in-flight epoch the view
// is the previous epoch's — consistent, at most one epoch stale.
func (e *Engine) Schedule() ScheduleView {
	s := e.snap.Load()
	v := ScheduleView{
		Now:           Instant(e.Now()),
		Epochs:        s.epochs,
		Items:         s.items,
		TotalRequests: s.totalReqs,
		Satisfied:     s.satisfied,
		WeightedValue: s.weightedValue,
	}
	v.Transfers = append(v.Transfers, s.transfers...)
	return v
}

// Info describes the service for clients (notably the trace replay).
// Lock-free: static fields are immutable after New, the rest come from the
// published snapshot and the intake/clock/drain atomics.
func (e *Engine) Info() Info {
	s := e.snap.Load()
	return Info{
		Scenario:  e.sc.Name,
		Machines:  e.sc.Network.NumMachines(),
		Links:     len(e.sc.Network.Links),
		Items:     s.items,
		Horizon:   Instant(e.sc.Horizon),
		Now:       Instant(e.Now()),
		Queue:     int(e.qdepth.Load()),
		QueueCap:  e.opts.QueueCap,
		MaxBatch:  e.opts.MaxBatch,
		Virtual:   e.opts.VirtualClock,
		TimeScale: e.opts.TimeScale,
		Scheduler: fmt.Sprintf("%v/%v", e.opts.Config.Heuristic, e.opts.Config.Criterion),
		Draining:  e.draining.Load(),
	}
}

// Scenario returns the engine's scenario including every admitted item.
// Only safe once the engine is quiescent (after Drain); used by tests to
// run the independent validator over the final schedule.
func (e *Engine) Scenario() *scenario.Scenario {
	e.mu.Lock()
	defer e.mu.Unlock()
	return &e.sc
}

// Result synthesizes a core.Result over the committed world — the shape the
// offline renderers (report tables, chrometrace) consume. Like Scenario,
// only safe once the engine is quiescent (after Drain).
func (e *Engine) Result() *core.Result {
	e.mu.Lock()
	defer e.mu.Unlock()
	sat := e.dyn.Satisfied()
	out := &core.Result{
		Config:    e.opts.Config,
		Transfers: append([]state.Transfer(nil), e.dyn.Transfers()...),
		Satisfied: make(map[model.RequestID]simtime.Instant, len(sat)),
	}
	for id, at := range sat {
		out.Satisfied[id] = at
	}
	return out
}

// Err reports the first fatal replan error, if any.
func (e *Engine) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fatal
}
