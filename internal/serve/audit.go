package serve

import (
	"time"

	"datastaging/internal/obs/lifecycle"
)

// Audit returns the engine's lifecycle recorder (nil when auditing is off).
func (e *Engine) Audit() *lifecycle.Recorder { return e.audit }

// Trail returns one ticket's audit records, oldest first.
func (e *Engine) Trail(id string) []lifecycle.Record { return e.audit.ForTicket(id) }

// verdictStatuses snapshots the per-request statuses before an old ticket is
// re-settled, so a revising epoch can be detected. Call with e.mu held.
func (t *Ticket) verdictStatuses() []Status {
	out := make([]Status, len(t.verdicts))
	for i := range t.verdicts {
		out[i] = t.verdicts[i].Status
	}
	return out
}

// verdictsChanged reports whether any request's status differs from the
// snapshot taken before re-settling.
func (t *Ticket) verdictsChanged(before []Status) bool {
	if len(before) != len(t.verdicts) {
		return true
	}
	for i := range t.verdicts {
		if t.verdicts[i].Status != before[i] {
			return true
		}
	}
	return false
}

// auditRecordLocked builds the wide event for one ticket as decided (or
// revised) by epoch ep. Call with e.mu held, after settleLocked has assigned
// verdicts.
func (e *Engine) auditRecordLocked(kind lifecycle.Kind, t *Ticket, ep *epoch) *lifecycle.Record {
	es := e.dyn.LastEpoch()
	path := "incremental"
	if es.Full {
		path = "full"
	}
	// Wall offsets are seconds since the submission was received; clock
	// skew clamps to zero so the timeline stays monotone.
	wall := func(w time.Time) float64 {
		if d := w.Sub(t.arrivedWall); d > 0 {
			return d.Seconds()
		}
		return 0
	}
	rec := &lifecycle.Record{
		Kind:   kind,
		Ticket: t.id,
		Item:   int(t.item),
		Name:   t.sub.Name,
		Timeline: []lifecycle.Hop{
			{Stage: lifecycle.StageReceived, V: int64(t.arrived)},
			{Stage: lifecycle.StageEnqueued, V: int64(t.arrived)},
			{Stage: lifecycle.StageEpochStart, V: int64(ep.at), WallS: wall(ep.epochStart)},
			{Stage: lifecycle.StagePlanned, V: int64(ep.at), WallS: wall(ep.planned)},
			{Stage: lifecycle.StageDecided, V: int64(ep.at), WallS: wall(ep.decided)},
			{Stage: lifecycle.StageSettled, V: int64(ep.at), WallS: wall(ep.settled)},
		},
		QueueDepth:        t.queueDepth,
		Epoch:             e.epochs,
		EpochAt:           int64(ep.at),
		EpochPath:         path,
		BatchSize:         len(ep.batch),
		ReplayedTransfers: es.ReplayedTransfers,
		DeltaItems:        es.DeltaItems,
		Status:            string(t.status),
		DecisionLatencyS:  wall(ep.decided),
		Shard:             e.opts.Shard,
	}
	for k := range t.verdicts {
		v := &t.verdicts[k]
		pri := 0
		if k < len(t.sub.Requests) {
			pri = t.sub.Requests[k].Priority
		}
		rec.Requests = append(rec.Requests, lifecycle.RequestOutcome{
			Item:       int(v.Request.Item),
			Index:      v.Request.Index,
			Machine:    v.Machine,
			Priority:   pri,
			Status:     string(v.Status),
			Deadline:   int64(v.Deadline),
			Completion: int64(v.Completion),
			Reason:     v.Reason,
			BlamedLink: v.BlamedLink,
		})
	}
	return rec
}

// emitAuditLocked appends the epoch's audit records: one decision per batch
// ticket, then one revision per older ticket whose verdicts this epoch
// changed. Call with e.mu held, before the done channels close, so a waiter
// that wakes on Done always finds its trace.
func (e *Engine) emitAuditLocked(ep *epoch, revised []*Ticket) {
	for _, t := range ep.batch {
		e.audit.Append(e.auditRecordLocked(lifecycle.KindDecision, t, ep))
	}
	for _, t := range revised {
		e.audit.Append(e.auditRecordLocked(lifecycle.KindRevision, t, ep))
	}
}
