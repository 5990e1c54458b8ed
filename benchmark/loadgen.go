package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// maxConns caps the shared keep-alive transport. A blocked ?wait=1 occupies
// one connection, so the cap must sit well above the steady in-flight count
// (rate x p50, 3-8 here) or the generator itself would queue sends and the
// loop would no longer be open.
const maxConns = 32

// requestTimeout bounds one submission; a timeout counts as a failure.
const requestTimeout = 10 * time.Second

// span is the client-side record of one submission. Offsets are from the
// run's start instant.
type span struct {
	Name     string        `json:"name"`
	Intended time.Duration `json:"intendedNs"`
	Sent     time.Duration `json:"sentNs"`
	Done     time.Duration `json:"doneNs"` // response body fully read
	Status   int           `json:"status"` // 0: transport error or timeout
	Cross    bool          `json:"cross"`
	// Inflight is how many submissions were outstanding when this one went
	// out (itself included).
	Inflight    int `json:"inflight"`
	SubmitBytes int `json:"submitBytes"`

	body []byte // raw verdict document, parsed after the run
}

// latencyMS is the open-loop latency: from the instant the submission was
// due, not from when it was actually sent, so a stalled service is charged
// for the sends it delayed.
func (s *span) latencyMS() float64 { return float64(s.Done-s.Intended) / float64(time.Millisecond) }

// lateMS is how late the generator itself sent.
func (s *span) lateMS() float64 { return float64(s.Sent-s.Intended) / float64(time.Millisecond) }

func newClient() *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		},
	}
}

// runOpenLoop sends every arrival at start+At on its own goroutine,
// whatever earlier ones are doing, and returns once all have completed or
// failed. One pacing goroutine (the caller's) does all the sleeping.
func runOpenLoop(client *http.Client, url string, arrivals []arrival, start time.Time) []span {
	spans := make([]span, len(arrivals))
	var inflight atomic.Int64
	var wg sync.WaitGroup
	for i := range arrivals {
		a := &arrivals[i]
		// Plain sleeping wakes 0.6 ms late at the median (see maxLateP99MS).
		// Spinning through the last millisecond removes that, but on the
		// 2-vCPU reference box the spinning thread disturbed the service on
		// the sibling CPU: the same seed then read 0.64-0.78 ms CPU per
		// submission instead of 0.69-0.74.
		if d := time.Until(start.Add(a.At)); d > 0 {
			time.Sleep(d)
		}
		sp := &spans[i]
		sp.Name, sp.Intended, sp.Cross, sp.SubmitBytes = a.Sub.Name, a.At, a.Cross, len(a.Body)
		sp.Inflight = int(inflight.Add(1))
		sp.Sent = time.Since(start)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			resp, err := client.Post(url, "application/json", bytes.NewReader(a.Body))
			if err != nil {
				sp.Done = time.Since(start)
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			sp.Done = time.Since(start)
			if err == nil {
				sp.Status, sp.body = resp.StatusCode, body
			}
		}()
	}
	wg.Wait()
	return spans
}

// loadgenHealth summarises whether the generator held its schedule.
type loadgenHealth struct {
	lateP99MS   float64
	inflightMax int
	// backlogMid and backlogEnd are the mean in-flight count over the third
	// and the last quarter of the sends: a backlog still rising at the end
	// means the offered rate is past the service's knee.
	backlogMid, backlogEnd float64
}

func health(spans []span) loadgenHealth {
	var h loadgenHealth
	late := make([]float64, len(spans))
	for i := range spans {
		late[i] = spans[i].lateMS()
		if spans[i].Inflight > h.inflightMax {
			h.inflightMax = spans[i].Inflight
		}
	}
	h.lateP99MS = percentile(sortedCopy(late), 99)
	quarter := func(from, to int) float64 {
		var v []float64
		for _, s := range spans[from:to] {
			v = append(v, float64(s.Inflight))
		}
		return mean(v)
	}
	n := len(spans)
	h.backlogMid = quarter(n/2, 3*n/4)
	h.backlogEnd = quarter(3*n/4, n)
	return h
}

// maxLateP99MS is the generator-lateness limit past which a run's latencies
// say more about the harness than about the service. A goroutine sleeping
// beside open sockets wakes on epoll's millisecond grid, and an idle process
// on the reference VM already sleeps 0.6 ms late at the median and 3-5 ms at
// p99, so the limit sits above that floor and well below the tens of
// milliseconds a saturated generator shows. Lateness is never hidden:
// latency runs from the intended instant.
const maxLateP99MS = 5.0

// invalid names what is wrong with the harness side of a run, or "".
func (h loadgenHealth) invalid() string {
	switch {
	case h.lateP99MS > maxLateP99MS:
		return fmt.Sprintf("generator ran late: loadgen.late_p99_ms %.2f above %g", h.lateP99MS, maxLateP99MS)
	case h.backlogEnd > 1.5*h.backlogMid+2:
		return "backlog still rising at the end of the run"
	}
	return ""
}
