// Package chrometrace converts a finished scheduling run — the committed
// schedule plus the planner's structured event stream — into Chrome
// trace-event JSON, the format Perfetto (https://ui.perfetto.dev) and
// chrome://tracing open directly. The simulated schedule becomes a
// timeline: one track per virtual link carrying its transfers as complete
// events, one track per send/receive port when the scenario serializes
// transfers, a storage counter track per machine, and a planner track with
// epoch spans and request-outcome instants.
//
// Timestamps are simulation time (nanosecond instants rendered as
// microseconds, the trace format's unit), not wall clock, so two runs of
// the same scenario produce byte-identical traces — the property the
// golden test pins.
package chrometrace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"datastaging/internal/core"
	"datastaging/internal/model"
	"datastaging/internal/obs"
	"datastaging/internal/obs/lifecycle"
	"datastaging/internal/scenario"
	"datastaging/internal/simtime"
	"datastaging/internal/state"
)

// The synthetic "process" ids grouping tracks in the viewer. Perfetto
// renders one expandable group per pid, ordered by process_sort_index.
const (
	pidLinks     = 1
	pidSendPorts = 2
	pidRecvPorts = 3
	pidStorage   = 4
	pidPlanner   = 5
	pidRequests  = 6
)

// event is one trace event in the Chrome trace-event format. Ts and Dur
// are microseconds.
type event struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat,omitempty"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Trace accumulates trace events for one run. Populate with AddResult
// (full-fidelity schedule: link, port, and storage tracks) and/or
// AddEvents (planner track from the event stream), then Encode. The zero
// value is not ready; use New.
type Trace struct {
	events []event
	meta   []event
	// seenMeta dedupes process/thread metadata across Add calls.
	seenMeta map[[2]int]bool
	// haveSchedule is set by AddResult; AddEvents then skips
	// transfer_booked events so transfers are not drawn twice.
	haveSchedule bool
}

// New returns an empty trace.
func New() *Trace {
	return &Trace{seenMeta: make(map[[2]int]bool)}
}

func usec(t simtime.Instant) float64  { return float64(t) / float64(time.Microsecond) }
func usecDur(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func machineName(sc *scenario.Scenario, m model.MachineID) string {
	if n := sc.Network.Machines[m].Name; n != "" {
		return n
	}
	return fmt.Sprintf("m%d", m)
}

func (t *Trace) process(pid int, name string) {
	key := [2]int{pid, -1}
	if t.seenMeta[key] {
		return
	}
	t.seenMeta[key] = true
	t.meta = append(t.meta,
		event{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": name}},
		event{Name: "process_sort_index", Ph: "M", Pid: pid, Args: map[string]any{"sort_index": pid}},
	)
}

func (t *Trace) thread(pid, tid int, name string) {
	key := [2]int{pid, tid}
	if t.seenMeta[key] {
		return
	}
	t.seenMeta[key] = true
	t.meta = append(t.meta,
		event{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": name}},
		event{Name: "thread_sort_index", Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"sort_index": tid}},
	)
}

// AddResult renders a finished run's committed schedule: every transfer as
// a complete event on its virtual link's track (and on the sender's and
// receiver's port tracks when the scenario serializes transfers), a
// storage-bytes counter track per machine, and request-outcome instants on
// the planner track. Transfer args carry the item, endpoints, byte size,
// and — when the arrival satisfied requests — each request with its
// priority and deadline slack in seconds.
func (t *Trace) AddResult(sc *scenario.Scenario, res *core.Result) {
	t.haveSchedule = true
	t.process(pidLinks, "virtual links")
	serial := sc.SerialTransfers
	if serial {
		t.process(pidSendPorts, "send ports")
		t.process(pidRecvPorts, "receive ports")
	}

	for _, tr := range res.Transfers {
		l := sc.Network.Link(tr.Link)
		t.thread(pidLinks, int(tr.Link), fmt.Sprintf("L%d %s→%s",
			tr.Link, machineName(sc, l.From), machineName(sc, l.To)))
		args := t.transferArgs(sc, res, tr)
		ev := event{
			Name: sc.Item(tr.Item).Name, Ph: "X", Cat: "transfer",
			Ts: usec(tr.Start), Dur: usecDur(tr.Duration),
			Pid: pidLinks, Tid: int(tr.Link), Args: args,
		}
		t.events = append(t.events, ev)
		if serial {
			t.thread(pidSendPorts, int(tr.From), machineName(sc, tr.From)+" send")
			t.thread(pidRecvPorts, int(tr.To), machineName(sc, tr.To)+" recv")
			ev.Pid, ev.Tid, ev.Cat = pidSendPorts, int(tr.From), "port"
			t.events = append(t.events, ev)
			ev.Pid, ev.Tid = pidRecvPorts, int(tr.To)
			t.events = append(t.events, ev)
		}
	}

	t.addStorage(sc, res.Transfers)
	t.addOutcomes(sc, res.Satisfied)
}

// transferArgs builds the args map of one transfer event.
func (t *Trace) transferArgs(sc *scenario.Scenario, res *core.Result, tr state.Transfer) map[string]any {
	it := sc.Item(tr.Item)
	args := map[string]any{
		"item":  it.Name,
		"bytes": it.SizeBytes,
		"from":  machineName(sc, tr.From),
		"to":    machineName(sc, tr.To),
		"link":  int(tr.Link),
	}
	// Requests this arrival satisfied: destination matches and the recorded
	// satisfaction instant is this transfer's arrival.
	var satisfied []map[string]any
	for k, rq := range it.Requests {
		if rq.Machine != tr.To {
			continue
		}
		id := model.RequestID{Item: tr.Item, Index: k}
		if at, ok := res.Satisfied[id]; ok && at == tr.Arrival {
			satisfied = append(satisfied, map[string]any{
				"request":          id.String(),
				"priority":         rq.Priority.String(),
				"deadline_slack_s": rq.Deadline.Sub(tr.Arrival).Seconds(),
			})
		}
	}
	if satisfied != nil {
		args["satisfies"] = satisfied
	}
	return args
}

// addStorage emits one counter track per machine that ever stores a staged
// copy: bytes reserved over time. Releases at or beyond the horizon
// (destination copies are held forever, and GC instants may fall outside
// the simulated day) are omitted — the counter simply stays up.
func (t *Trace) addStorage(sc *scenario.Scenario, transfers []state.Transfer) {
	type delta struct {
		at    simtime.Instant
		bytes int64
	}
	deltas := make(map[model.MachineID][]delta)
	for _, tr := range transfers {
		it := sc.Item(tr.Item)
		deltas[tr.To] = append(deltas[tr.To], delta{tr.Arrival, it.SizeBytes})
		end := sc.GCInstant(it)
		for _, rq := range it.Requests {
			if rq.Machine == tr.To {
				end = simtime.Forever
				break
			}
		}
		if end != simtime.Forever && !end.After(sc.Horizon) {
			deltas[tr.To] = append(deltas[tr.To], delta{end, -it.SizeBytes})
		}
	}
	if len(deltas) == 0 {
		return
	}
	t.process(pidStorage, "storage")
	machines := make([]model.MachineID, 0, len(deltas))
	for m := range deltas {
		machines = append(machines, m)
	}
	sort.Slice(machines, func(a, b int) bool { return machines[a] < machines[b] })
	for _, m := range machines {
		ds := deltas[m]
		sort.Slice(ds, func(a, b int) bool { return ds[a].at < ds[b].at })
		name := machineName(sc, m) + " staged bytes"
		var level int64
		for i := 0; i < len(ds); {
			j := i
			for j < len(ds) && ds[j].at == ds[i].at {
				level += ds[j].bytes
				j++
			}
			t.events = append(t.events, event{
				Name: name, Ph: "C", Ts: usec(ds[i].at),
				Pid: pidStorage, Tid: int(m),
				Args: map[string]any{"bytes": level},
			})
			i = j
		}
	}
}

// addOutcomes emits one instant per request on the planner track:
// "satisfied" at the arrival instant, "missed" at the deadline.
func (t *Trace) addOutcomes(sc *scenario.Scenario, satisfied map[model.RequestID]simtime.Instant) {
	t.process(pidPlanner, "planner")
	t.thread(pidPlanner, 0, "requests")
	for _, id := range sc.Requests() {
		rq := sc.Request(id)
		if at, ok := satisfied[id]; ok {
			t.events = append(t.events, event{
				Name: "satisfied " + id.String(), Ph: "i", S: "t",
				Ts: usec(at), Pid: pidPlanner, Tid: 0,
				Args: map[string]any{
					"priority":         rq.Priority.String(),
					"deadline_slack_s": rq.Deadline.Sub(at).Seconds(),
				},
			})
		} else {
			t.events = append(t.events, event{
				Name: "missed " + id.String(), Ph: "i", S: "t",
				Ts: usec(rq.Deadline), Pid: pidPlanner, Tid: 0,
				Args: map[string]any{"priority": rq.Priority.String()},
			})
		}
	}
}

// AddEvents renders the sim-timed planner events of one run: epoch-replan
// spans (each epoch lasting until the next, the last until horizon),
// request satisfactions, and item deaths as instants nested inside them.
// When AddResult has not populated the link tracks, transfer_booked events
// reconstruct them (without per-request slack args — the event stream does
// not carry deadlines). Events without a simulation timestamp (iteration
// and forest bookkeeping) have no place on a timeline and are skipped.
func (t *Trace) AddEvents(sc *scenario.Scenario, evs []obs.Event) {
	t.process(pidPlanner, "planner")

	var epochs []obs.Event
	for _, e := range evs {
		switch e.Kind {
		case obs.EvEpochReplan:
			epochs = append(epochs, e)
		case obs.EvRequestSatisfied:
			t.thread(pidPlanner, 0, "requests")
			id := model.RequestID{Item: model.ItemID(e.Item), Index: e.Req}
			t.events = append(t.events, event{
				Name: "satisfied " + id.String(), Ph: "i", S: "t",
				Ts: usec(simtime.Instant(e.At)), Pid: pidPlanner, Tid: 0,
				Args: map[string]any{"deadline_slack_s": e.Value},
			})
		case obs.EvItemDead:
			t.thread(pidPlanner, 0, "requests")
			t.events = append(t.events, event{
				Name: fmt.Sprintf("item %d dead (%s)", e.Item, e.Reason), Ph: "i", S: "t",
				Ts: usec(simtime.Instant(e.At)), Pid: pidPlanner, Tid: 0,
			})
		case obs.EvTransferBooked:
			if t.haveSchedule {
				continue
			}
			link := model.LinkID(e.Link)
			l := sc.Network.Link(link)
			t.process(pidLinks, "virtual links")
			t.thread(pidLinks, e.Link, fmt.Sprintf("L%d %s→%s",
				e.Link, machineName(sc, l.From), machineName(sc, l.To)))
			t.events = append(t.events, event{
				Name: sc.Item(model.ItemID(e.Item)).Name, Ph: "X", Cat: "transfer",
				Ts:  usec(simtime.Instant(e.At)),
				Dur: e.Value * float64(time.Second) / float64(time.Microsecond),
				Pid: pidLinks, Tid: e.Link,
				Args: map[string]any{
					"item": sc.Item(model.ItemID(e.Item)).Name,
					"to":   machineName(sc, model.MachineID(e.Machine)),
					"link": e.Link,
				},
			})
		}
	}

	if len(epochs) > 0 {
		t.thread(pidPlanner, 1, "epochs")
		sort.SliceStable(epochs, func(a, b int) bool { return epochs[a].At < epochs[b].At })
		for i, e := range epochs {
			end := sc.Horizon
			if i+1 < len(epochs) {
				end = simtime.Instant(epochs[i+1].At)
			}
			if end < simtime.Instant(e.At) {
				end = simtime.Instant(e.At)
			}
			t.events = append(t.events, event{
				Name: fmt.Sprintf("epoch %d", i), Ph: "X", Cat: "planner",
				Ts:  usec(simtime.Instant(e.At)),
				Dur: usecDur(end.Sub(simtime.Instant(e.At))),
				Pid: pidPlanner, Tid: 1,
				Args: map[string]any{"aborted_transfers": e.N},
			})
		}
	}
}

// AddLifecycle renders an admission audit stream as per-request tracks: one
// track per ticket under a "requests" process, carrying the intake-queue
// wait as a span from receipt to the deciding epoch, the verdict as an
// instant (args: epoch ordinal, replan path, batch size; the queued span
// carries the queue depth at arrival), a delivery span from
// the epoch to each admitted request's committed completion, and every later
// revision as its own instant. Backpressure sheds — submissions that never
// got a ticket — land as instants on a shared "shed" track. Timestamps are
// the records' virtual instants, so a deterministic audit stream yields a
// deterministic trace.
func (t *Trace) AddLifecycle(recs []lifecycle.Record) {
	if len(recs) == 0 {
		return
	}
	t.process(pidRequests, "requests")
	for i := range recs {
		rec := &recs[i]
		if rec.Kind == lifecycle.KindBackpressure {
			t.thread(pidRequests, 0, "shed")
			t.events = append(t.events, event{
				Name: "shed (backpressure)", Ph: "i", S: "t",
				Ts: usec(simtime.Instant(rec.Timeline[0].V)), Pid: pidRequests, Tid: 0,
				Args: map[string]any{
					"queue_depth":   rec.QueueDepth,
					"retry_after_s": rec.RetryAfterS,
				},
			})
			continue
		}
		// Item ids are unique per ticket and assigned in admission order, so
		// item+1 is a stable per-ticket track (0 is the shed track).
		tid := rec.Item + 1
		name := rec.Ticket
		if rec.Name != "" {
			name += " " + rec.Name
		}
		t.thread(pidRequests, tid, name)
		received := simtime.Instant(rec.Timeline[0].V)
		epochAt := simtime.Instant(rec.EpochAt)
		switch rec.Kind {
		case lifecycle.KindDecision:
			t.events = append(t.events, event{
				Name: "queued", Ph: "X", Cat: "request",
				Ts: usec(received), Dur: usecDur(epochAt.Sub(received)),
				Pid: pidRequests, Tid: tid,
				Args: map[string]any{"queue_depth": rec.QueueDepth},
			})
			t.events = append(t.events, event{
				Name: "decision: " + rec.Status, Ph: "i", S: "t",
				Ts: usec(epochAt), Pid: pidRequests, Tid: tid,
				Args: map[string]any{
					"epoch":      rec.Epoch,
					"epoch_path": rec.EpochPath,
					"batch_size": rec.BatchSize,
				},
			})
		case lifecycle.KindRevision:
			t.events = append(t.events, event{
				Name: "revised: " + rec.Status, Ph: "i", S: "t",
				Ts: usec(epochAt), Pid: pidRequests, Tid: tid,
				Args: map[string]any{"epoch": rec.Epoch},
			})
		}
		for _, rq := range rec.Requests {
			if rq.Status != "admitted" || rq.Completion <= int64(epochAt) {
				continue
			}
			t.events = append(t.events, event{
				Name: fmt.Sprintf("deliver r%d.%d", rq.Item, rq.Index),
				Ph:   "X", Cat: "request",
				Ts:  usec(epochAt),
				Dur: usecDur(simtime.Instant(rq.Completion).Sub(epochAt)),
				Pid: pidRequests, Tid: tid,
				Args: map[string]any{
					"machine":          rq.Machine,
					"deadline_slack_s": float64(rq.Deadline-rq.Completion) / float64(time.Second),
				},
			})
		}
	}
}

// Encode writes the accumulated trace as Chrome trace-event JSON:
// metadata first, then events sorted by (pid, tid, ts, longer-span-first,
// name) so every track is time-ordered in file order and nested spans
// appear parent-first. The output is deterministic for a deterministic
// schedule.
func (t *Trace) Encode(w io.Writer) error {
	sort.SliceStable(t.events, func(a, b int) bool {
		ea, eb := &t.events[a], &t.events[b]
		if ea.Pid != eb.Pid {
			return ea.Pid < eb.Pid
		}
		if ea.Tid != eb.Tid {
			return ea.Tid < eb.Tid
		}
		if ea.Ts != eb.Ts {
			return ea.Ts < eb.Ts
		}
		if ea.Dur != eb.Dur {
			return ea.Dur > eb.Dur
		}
		return ea.Name < eb.Name
	})
	sort.SliceStable(t.meta, func(a, b int) bool {
		ea, eb := &t.meta[a], &t.meta[b]
		if ea.Pid != eb.Pid {
			return ea.Pid < eb.Pid
		}
		if ea.Tid != eb.Tid {
			return ea.Tid < eb.Tid
		}
		return ea.Name < eb.Name
	})
	all := make([]event, 0, len(t.meta)+len(t.events))
	all = append(all, t.meta...)
	all = append(all, t.events...)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{TraceEvents: all, DisplayTimeUnit: "ms"})
}

// WriteFile is a convenience wrapper: build a trace from a result and an
// optional event stream and encode it to w in one call.
func WriteFile(w io.Writer, sc *scenario.Scenario, res *core.Result, evs []obs.Event) error {
	t := New()
	if res != nil {
		t.AddResult(sc, res)
	}
	if len(evs) > 0 {
		t.AddEvents(sc, evs)
	}
	return t.Encode(w)
}
