package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"datastaging/internal/workload"
)

// LoadReport is the outcome of one trace replay.
type LoadReport struct {
	Requests   int
	Admitted   int
	Rejected   int
	Errors     int
	Overloaded int // 429 responses (counted, never retried)
	Elapsed    time.Duration
	// Latencies of every decided submission, sorted: from the arrival's due
	// instant to its verdict on the wall clock, or the wall duration of the
	// Advance that flushed its epoch on the virtual clock.
	Latencies []time.Duration
}

// Percentile returns the p-th (0–100) latency percentile.
func (r *LoadReport) Percentile(p float64) time.Duration {
	if len(r.Latencies) == 0 {
		return 0
	}
	idx := int(p / 100 * float64(len(r.Latencies)-1))
	return r.Latencies[idx]
}

// Write prints the human-readable summary stageload ends with.
func (r *LoadReport) Write(w io.Writer) {
	fmt.Fprintf(w, "requests   %d\n", r.Requests)
	fmt.Fprintf(w, "admitted   %d (%.1f%%)\n", r.Admitted, pct(r.Admitted, r.Requests))
	fmt.Fprintf(w, "rejected   %d (%.1f%%)\n", r.Rejected, pct(r.Rejected, r.Requests))
	if r.Errors > 0 {
		fmt.Fprintf(w, "errors     %d\n", r.Errors)
	}
	fmt.Fprintf(w, "overloaded %d (429s, not retried)\n", r.Overloaded)
	fmt.Fprintf(w, "elapsed    %v\n", r.Elapsed.Round(time.Millisecond))
	if len(r.Latencies) > 0 {
		fmt.Fprintf(w, "latency    p50 %v  p90 %v  p99 %v  max %v\n",
			r.Percentile(50).Round(time.Microsecond),
			r.Percentile(90).Round(time.Microsecond),
			r.Percentile(99).Round(time.Microsecond),
			r.Latencies[len(r.Latencies)-1].Round(time.Microsecond))
	}
	rate := float64(r.Requests) / r.Elapsed.Seconds()
	fmt.Fprintf(w, "throughput %.1f submissions/s\n", rate)
}

func pct(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return 100 * float64(n) / float64(of)
}

// SubmissionFromArrival converts a canonical-trace arrival into the
// submission the admission API accepts. The conversion is lossless modulo
// the arrival instant, which the replay driver supplies by submitting when
// the service clock reaches Arrival.At.
func SubmissionFromArrival(a workload.Arrival) Submission {
	sub := Submission{Name: a.Name, SizeBytes: a.SizeBytes}
	for _, src := range a.Sources {
		sub.Sources = append(sub.Sources, SourceSpec{
			Machine: src.Machine, Available: Instant(src.Available),
		})
	}
	for _, rq := range a.Requests {
		sub.Requests = append(sub.Requests, RequestSpec{
			Machine: rq.Machine, Deadline: Instant(rq.Deadline), Priority: rq.Priority,
		})
	}
	return sub
}

// ReplayTrace replays a canonical trace against a stagesvc endpoint, on
// whichever clock the service runs (Info.Virtual).
//
// On the virtual clock the replay is bit-identical to the offline engine:
// advance the clock to each distinct arrival instant (flushing the previous
// instant's batch into one admission epoch), submit that instant's
// arrivals, and flush the final batch. The service's queue-cap must hold
// the largest same-instant batch — otherwise submissions would be shed and
// the replay would diverge from the offline schedule. Each decided submission's latency is the wall duration of the
// Advance call that flushed its epoch.
//
// On the wall clock the replay is open-loop (see replayWall).
func ReplayTrace(ctx context.Context, c *Client, tr *workload.Trace) (*LoadReport, error) {
	info, err := c.Info(ctx)
	if err != nil {
		return nil, fmt.Errorf("serve: cannot describe service: %w", err)
	}
	if info.Machines < tr.Machines {
		return nil, fmt.Errorf("serve: trace %q wants %d machines, service has %d",
			tr.Name, tr.Machines, info.Machines)
	}
	if !info.Virtual {
		return replayWall(ctx, c, tr, info)
	}
	maxGroup := 0
	for i, g := 0, 0; i < len(tr.Arrivals); i++ {
		if i == 0 || tr.Arrivals[i-1].At != tr.Arrivals[i].At {
			g = 0
		}
		g++
		if g > maxGroup {
			maxGroup = g
		}
	}
	if info.QueueCap < maxGroup {
		return nil, fmt.Errorf(
			"serve: largest same-instant batch is %d submissions; raise -queue-cap to at least it (now %d)",
			maxGroup, info.QueueCap)
	}

	rep := &LoadReport{Requests: len(tr.Arrivals)}
	begin := time.Now()
	ids := make([]string, 0, len(tr.Arrivals))
	pending := 0
	flush := func(to Instant) error {
		t0 := time.Now()
		if _, err := c.Advance(ctx, to); err != nil {
			return fmt.Errorf("serve: advance to %v: %w", to, err)
		}
		d := time.Since(t0)
		for ; pending > 0; pending-- {
			rep.Latencies = append(rep.Latencies, d)
		}
		return nil
	}
	for i := range tr.Arrivals {
		a := &tr.Arrivals[i]
		if i == 0 || tr.Arrivals[i-1].At != a.At {
			if err := flush(Instant(a.At)); err != nil {
				return nil, err
			}
		}
		view, err := c.Submit(ctx, SubmissionFromArrival(*a), false)
		if err != nil {
			return nil, fmt.Errorf("serve: submit arrival %d: %w", i, err)
		}
		ids = append(ids, view.ID)
		pending++
	}
	if len(tr.Arrivals) > 0 {
		// Advancing to the current instant is a pure flush of the last batch.
		if err := flush(Instant(tr.Arrivals[len(tr.Arrivals)-1].At)); err != nil {
			return nil, err
		}
	}
	for _, id := range ids {
		view, err := c.Ticket(ctx, id)
		if err != nil {
			return nil, fmt.Errorf("serve: ticket %s: %w", id, err)
		}
		switch view.Status {
		case StatusAdmitted:
			rep.Admitted++
		case StatusRejected:
			rep.Rejected++
		default:
			rep.Errors++
		}
	}
	rep.Elapsed = time.Since(begin)
	sort.Slice(rep.Latencies, func(a, b int) bool { return rep.Latencies[a] < rep.Latencies[b] })
	return rep, nil
}

// replayWall is ReplayTrace against a wall-clock service: an open-loop
// driver. The trace is shifted once, by the single offset that puts its
// first arrival on the service's current instant, and every arrival is
// submitted (?wait=1) on its own goroutine when the service clock reaches
// its shifted instant, whatever earlier submissions are doing. Latency runs
// from that due instant, not from the send, so a stalled service is charged
// for the sends it delayed. A 429 is counted as overloaded and not retried:
// a retry would be a later arrival the trace does not contain. In-flight
// submissions are bounded by the trace's length; past its queue cap the
// service sheds them.
func replayWall(ctx context.Context, c *Client, tr *workload.Trace, info Info) (*LoadReport, error) {
	if info.TimeScale <= 0 {
		return nil, fmt.Errorf("serve: service reports time scale %v; need a positive one", info.TimeScale)
	}
	rep := &LoadReport{Requests: len(tr.Arrivals)}
	if len(tr.Arrivals) == 0 {
		return rep, nil
	}
	first := tr.Arrivals[0].At
	shift := info.Now - Instant(first)
	begin := time.Now() // where Info read the service's now

	type outcome struct {
		status Status
		lat    time.Duration
		err    error
	}
	outs := make([]outcome, len(tr.Arrivals))
	var wg sync.WaitGroup
	for i := range tr.Arrivals {
		// The wall instant the service clock reaches the shifted arrival.
		due := begin.Add(time.Duration(float64(tr.Arrivals[i].At.Sub(first)) / info.TimeScale))
		select {
		case <-time.After(time.Until(due)):
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		sub := SubmissionFromArrival(tr.Arrivals[i])
		for k := range sub.Sources {
			sub.Sources[k].Available += shift
		}
		for k := range sub.Requests {
			sub.Requests[k].Deadline += shift
		}
		wg.Add(1)
		go func(out *outcome) {
			defer wg.Done()
			view, err := c.Submit(ctx, sub, true)
			out.status, out.lat, out.err = view.Status, time.Since(due), err
		}(&outs[i])
	}
	wg.Wait()
	rep.Elapsed = time.Since(begin)
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	for _, out := range outs {
		var st *ErrStatus
		switch {
		case errors.As(out.err, &st) && st.IsOverloaded():
			rep.Overloaded++
			continue
		case out.err != nil:
			rep.Errors++
			continue
		case out.status == StatusAdmitted:
			rep.Admitted++
		case out.status == StatusRejected:
			rep.Rejected++
		default:
			rep.Errors++
			continue
		}
		rep.Latencies = append(rep.Latencies, out.lat)
	}
	sort.Slice(rep.Latencies, func(a, b int) bool { return rep.Latencies[a] < rep.Latencies[b] })
	return rep, nil
}
