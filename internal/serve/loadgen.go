package serve

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"datastaging/internal/workload"
)

// LoadParams shapes the synthetic submission stream of the load generator.
// The zero value is useless; start from DefaultLoadParams.
type LoadParams struct {
	// Seed makes the generated submission stream deterministic: the same
	// seed against the same service Info yields the same submissions.
	Seed int64
	// Requests is the total number of submissions to drive.
	Requests int
	// Workers is the closed-loop concurrency: each worker keeps exactly one
	// submission in flight.
	Workers int
	// SizeBytes is the item-size range, drawn log-uniformly.
	SizeMin, SizeMax int64
	// Slack is the deadline slack range: a deadline lands uniformly in
	// [now+SlackMin, now+SlackMax], clamped under the horizon.
	SlackMin, SlackMax time.Duration
	// MaxPriority draws priorities uniformly from [0, MaxPriority].
	MaxPriority int
	// Backoff is the base retry delay after a 429 (the retry re-submits
	// the same submission; it still counts once).
	Backoff time.Duration
	// BackoffMax caps the jittered exponential retry schedule: attempt a
	// sleeps a seeded-random duration in [b/2, b) where b is Backoff
	// doubled a times, capped at BackoffMax. The jitter is drawn from the
	// generator's own seed (mixed with the submission index and attempt),
	// so a load run's retry timing is as reproducible as its submission
	// stream. A BackoffMax at or below Backoff restores the legacy fixed
	// delay.
	BackoffMax time.Duration
}

// DefaultLoadParams returns the stageload defaults: small items with an
// hour-scale slack against the paper's day-long horizon.
func DefaultLoadParams(seed int64, n int) LoadParams {
	return LoadParams{
		Seed:        seed,
		Requests:    n,
		Workers:     8,
		SizeMin:     64 << 10,
		SizeMax:     16 << 20,
		SlackMin:    time.Hour,
		SlackMax:    8 * time.Hour,
		MaxPriority: 2,
		Backoff:     50 * time.Millisecond,
		BackoffMax:  time.Second,
	}
}

// BackoffDelay returns the retry delay of the i-th submission's attempt-th
// 429 (attempt counts from 0). Deterministic: the jitter RNG is seeded
// from the load seed, the submission index, and the attempt, so two runs
// of the same parameters sleep identically. The exponential-with-jitter
// schedule decorrelates the retry herd a fixed delay creates: when a
// flushed epoch sheds a whole batch, fixed-backoff workers all come back
// in the same instant and collide again.
func BackoffDelay(p LoadParams, i, attempt int) time.Duration {
	if p.Backoff <= 0 {
		return 0
	}
	if p.BackoffMax <= p.Backoff {
		return p.Backoff // legacy fixed delay
	}
	base := p.Backoff
	for a := 0; a < attempt && base < p.BackoffMax; a++ {
		base *= 2
	}
	if base > p.BackoffMax {
		base = p.BackoffMax
	}
	if base < 2 {
		return base
	}
	rng := rand.New(rand.NewSource(p.Seed ^ int64(i)*0x5851F42D4C957F2D ^ int64(attempt+1)*0x2545F4914F6CDD1D))
	return base/2 + time.Duration(rng.Int63n(int64(base/2)))
}

// LoadReport is the outcome of one load run.
type LoadReport struct {
	Requests   int
	Admitted   int
	Rejected   int
	Errors     int
	Overloaded int // 429 responses (retried; counts shed attempts)
	Elapsed    time.Duration
	// Latencies of every decided submission (submit → verdict), sorted.
	Latencies []time.Duration
	// Ordered holds the same latencies in completion order. Windowed means
	// over it are the soak check: per-epoch admission cost that grows with
	// the committed history shows up as a rising tail of windows, while the
	// incremental engine should hold them flat.
	Ordered []time.Duration
}

// WindowMeans splits the completion-ordered latencies into k contiguous
// windows and returns each window's mean. Fewer than k samples yield one
// window per sample.
func (r *LoadReport) WindowMeans(k int) []time.Duration {
	n := len(r.Ordered)
	if k <= 0 || n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	out := make([]time.Duration, 0, k)
	for w := 0; w < k; w++ {
		lo, hi := w*n/k, (w+1)*n/k
		var sum time.Duration
		for _, d := range r.Ordered[lo:hi] {
			sum += d
		}
		out = append(out, sum/time.Duration(hi-lo))
	}
	return out
}

// Slope is the ratio of the last window's mean latency to the first's over
// k completion-order windows: ~1 when per-epoch admission cost is flat,
// rising when it scales with the committed schedule. It is the quantity
// the soak smoke test gates on.
func (r *LoadReport) Slope(k int) float64 {
	means := r.WindowMeans(k)
	if len(means) < 2 || means[0] <= 0 {
		return 1
	}
	return float64(means[len(means)-1]) / float64(means[0])
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
	fmt.Fprintf(w, "overloaded %d (429s, retried)\n", r.Overloaded)
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

// GenSubmission synthesizes the i-th submission of a seeded stream against
// a service description. Exposed so tests can replay the exact stream a
// load run produced.
func GenSubmission(p LoadParams, info Info, i int) Submission {
	rng := rand.New(rand.NewSource(p.Seed + int64(i)))
	src := rng.Intn(info.Machines)
	dst := rng.Intn(info.Machines - 1)
	if dst >= src {
		dst++
	}
	size := p.SizeMin
	if p.SizeMax > p.SizeMin {
		// Log-uniform: small items common, large items rare — the shape a
		// shared staging network actually sees.
		lo, hi := float64(p.SizeMin), float64(p.SizeMax)
		size = int64(lo * math.Pow(hi/lo, rng.Float64()))
	}
	slack := p.SlackMin
	if p.SlackMax > p.SlackMin {
		slack += time.Duration(rng.Int63n(int64(p.SlackMax - p.SlackMin)))
	}
	deadline := Instant(info.Now) + Instant(slack)
	if info.Horizon > 0 && deadline > info.Horizon {
		deadline = info.Horizon
	}
	return Submission{
		Name:      fmt.Sprintf("load-%d", i),
		SizeBytes: size,
		Sources:   []SourceSpec{{Machine: src}},
		Requests: []RequestSpec{{
			Machine:  dst,
			Deadline: deadline,
			Priority: rng.Intn(p.MaxPriority + 1),
		}},
	}
}

// SubmissionFromArrival converts a canonical-trace arrival into the
// submission the admission API accepts. The conversion is lossless modulo
// the arrival instant, which the replay driver supplies by advancing the
// virtual clock to Arrival.At before submitting.
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

// ReplayTrace replays a canonical trace against a stagesvc endpoint,
// bit-identically to the offline engine: advance the virtual clock to each
// distinct arrival instant (flushing the previous instant's batch into one
// admission epoch), submit that instant's arrivals, and flush the final
// batch. Requires a virtual-clock service whose max-batch and queue-cap
// exceed the largest same-instant batch — otherwise a batch would split
// across epochs and the replay would diverge from the offline schedule.
// Each decided submission's latency is the wall duration of the Advance
// call that flushed its epoch.
func ReplayTrace(ctx context.Context, c *Client, tr *workload.Trace) (*LoadReport, error) {
	info, err := c.Info(ctx)
	if err != nil {
		return nil, fmt.Errorf("serve: cannot describe service: %w", err)
	}
	if !info.Virtual {
		return nil, fmt.Errorf("serve: trace replay needs a virtual-clock service (stagesvc -virtual-clock)")
	}
	if info.Machines < tr.Machines {
		return nil, fmt.Errorf("serve: trace %q wants %d machines, service has %d",
			tr.Name, tr.Machines, info.Machines)
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
	if info.MaxBatch <= maxGroup || info.QueueCap < maxGroup {
		return nil, fmt.Errorf(
			"serve: largest same-instant batch is %d submissions; raise -max-batch above it (now %d) and -queue-cap to at least it (now %d)",
			maxGroup, info.MaxBatch, info.QueueCap)
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
			rep.Ordered = append(rep.Ordered, d)
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

// RunLoad drives a deterministic closed-loop load against a stagesvc
// endpoint: Workers goroutines each submit with ?wait=1, retrying on 429
// on the BackoffDelay schedule, until Requests submissions have a verdict.
func RunLoad(ctx context.Context, c *Client, p LoadParams) (*LoadReport, error) {
	if p.Requests <= 0 {
		return nil, fmt.Errorf("serve: load run needs a positive request count")
	}
	if p.Workers <= 0 {
		p.Workers = 1
	}
	info, err := c.Info(ctx)
	if err != nil {
		return nil, fmt.Errorf("serve: cannot describe service: %w", err)
	}
	if info.Machines < 2 {
		return nil, fmt.Errorf("serve: scenario has %d machines; need at least 2", info.Machines)
	}

	var (
		mu  sync.Mutex
		rep = LoadReport{Requests: p.Requests}
	)
	next := make(chan int)
	go func() {
		defer close(next)
		for i := 0; i < p.Requests; i++ {
			select {
			case next <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	begin := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < p.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				sub := GenSubmission(p, info, i)
				start := time.Now()
				var view TicketView
				for attempt := 0; ; attempt++ {
					var err error
					view, err = c.Submit(ctx, sub, true)
					if st, ok := err.(*ErrStatus); ok && st.IsOverloaded() {
						mu.Lock()
						rep.Overloaded++
						mu.Unlock()
						select {
						case <-time.After(BackoffDelay(p, i, attempt)):
							continue
						case <-ctx.Done():
							return
						}
					}
					if err != nil {
						mu.Lock()
						rep.Errors++
						mu.Unlock()
					}
					break
				}
				lat := time.Since(start)
				mu.Lock()
				decided := true
				switch view.Status {
				case StatusAdmitted:
					rep.Admitted++
				case StatusRejected:
					rep.Rejected++
				default:
					decided = false
				}
				if decided {
					rep.Latencies = append(rep.Latencies, lat)
					rep.Ordered = append(rep.Ordered, lat)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	rep.Elapsed = time.Since(begin)
	sort.Slice(rep.Latencies, func(a, b int) bool { return rep.Latencies[a] < rep.Latencies[b] })
	if err := ctx.Err(); err != nil {
		return &rep, err
	}
	return &rep, nil
}
