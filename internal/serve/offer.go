package serve

import (
	"datastaging/internal/model"
	"datastaging/internal/simtime"
)

// Proposal is an admission epoch left open: Propose planned one submission
// into the engine's world through the same planLocked every flush uses and
// returns with the engine lock HELD, so the world cannot move until the
// caller closes the epoch with exactly one of Commit (finishLocked) or Abort
// (abortLocked). The two-level cross-shard admission path (internal/shard)
// builds an offer per touched shard, reads each leg's earliest completion,
// and commits only on all-accept — otherwise each shard rolls back
// bit-identically via the engine's O(1) checkpoint.
//
// Holding the lock across the round is what makes an offer a real
// reservation rather than a racy estimate: no local submission, flush, or
// clock advance can invalidate the offered slots in between. Deadlock
// safety is the caller's contract — only a single coordinator may hold
// proposals on more than one engine at a time.
type Proposal struct {
	e       *Engine
	t       *Ticket
	ep      epoch
	settled bool
}

// Propose speculatively admits one submission at the engine's current
// instant: pending queued submissions are flushed first (the offer builds
// on a settled world), then the submission is planned as an epoch of one.
// The returned proposal holds the engine lock; the caller MUST call Commit
// or Abort. Errors (validation, draining, a wedged engine) leave the engine
// unlocked.
func (e *Engine) Propose(sub Submission) (*Proposal, error) {
	if err := sub.validate(e.sc.Network.NumMachines()); err != nil {
		return nil, err
	}
	e.mu.Lock()
	if e.draining.Load() || e.fatal != nil {
		e.mu.Unlock()
		return nil, ErrDraining
	}
	at := e.Now()
	e.flushLocked(at)
	if e.fatal != nil {
		e.mu.Unlock()
		return nil, e.fatal
	}
	t := e.newTicketLocked(sub, at)
	span := e.epochTimer.Start()
	ep, ok := e.planLocked(at, t)
	span.Stop()
	if !ok {
		e.mu.Unlock()
		return nil, e.fatal
	}
	return &Proposal{e: e, t: t, ep: ep}, nil
}

// Completion returns request k's committed delivery instant under the
// speculative plan, false when the request is not satisfied. The
// coordinator uses it as the earliest slot a downstream leg can build on.
func (p *Proposal) Completion(k int) (simtime.Instant, bool) {
	at, ok := p.e.dyn.Satisfied()[model.RequestID{Item: p.t.item, Index: k}]
	return at, ok
}

// end closes the proposal's epoch with fn — guarded against a second
// settlement, timed, and followed by the release of the engine lock.
// serve.epoch_seconds thus covers the plan and the finish or abort work,
// never the coordinator's hold between them.
func (p *Proposal) end(fn func(*epoch)) {
	if p.settled {
		panic("serve: proposal settled twice")
	}
	p.settled = true
	span := p.e.epochTimer.Start()
	fn(&p.ep)
	span.Stop()
	p.e.mu.Unlock()
}

// Commit keeps the speculative plan: the ticket is registered and the epoch
// finishes like any other (verdicts, metrics, diagnosis, publish, audit).
// The engine lock is released. Returns the live ticket.
func (p *Proposal) Commit() *Ticket {
	p.end(func(ep *epoch) {
		p.e.tickets[p.t.id] = p.t
		p.e.finishLocked(ep)
	})
	return p.t
}

// Abort discards the speculative plan and restores the pre-offer world
// bit-identically. The engine lock is released.
func (p *Proposal) Abort() { p.end(p.e.abortLocked) }
