package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"datastaging/internal/simtime"
	"datastaging/internal/workload"
)

// TestReplayWallClock drives the open-loop branch of ReplayTrace against a
// scripted wall-clock service and checks its three rules: the trace is
// shifted by one offset onto the service's now, a 429 is counted once and
// never retried, and latency counts from each arrival's due instant — so
// the queueing a slow service imposes on later arrivals is charged to them.
func TestReplayWallClock(t *testing.T) {
	const (
		scale   = 3600                  // one simulated hour per wall second
		spacing = 36 * time.Second      // 10 ms of wall time between arrivals
		hold    = 50 * time.Millisecond // the service decides one submission at a time
		shed    = "a-1"
	)
	first := simtime.At(time.Hour)
	svcNow := simtime.At(5 * time.Hour)
	var arrivals []workload.Arrival
	for k := 0; k < 5; k++ {
		at := first + simtime.Instant(k)*simtime.Instant(spacing)
		arrivals = append(arrivals, workload.Arrival{
			At: at, Name: "a-" + string(rune('0'+k)), SizeBytes: 1 << 20,
			Sources:  []workload.ArrivalSource{{Machine: 0, Available: first}},
			Requests: []workload.ArrivalRequest{{Machine: 1, Deadline: at.Add(2 * time.Hour), Priority: 1}},
		})
	}
	tr := workload.NewTrace("wall", 2, nil, arrivals)

	type seen struct {
		sub       Submission
		recv, out time.Time
	}
	var (
		mu     sync.Mutex
		got    = map[string][]seen{}
		decide sync.Mutex
	)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/info", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, Info{Machines: 2, Now: Instant(svcNow), TimeScale: scale, QueueCap: 8})
	})
	mux.HandleFunc("POST /v1/requests", func(w http.ResponseWriter, r *http.Request) {
		s := seen{recv: time.Now()}
		if err := json.NewDecoder(r.Body).Decode(&s.sub); err != nil {
			t.Errorf("decode: %v", err)
		}
		code, status := http.StatusOK, StatusAdmitted
		if s.sub.Name == shed {
			code = http.StatusTooManyRequests
		} else {
			decide.Lock()
			time.Sleep(hold)
			decide.Unlock()
		}
		s.out = time.Now()
		mu.Lock()
		got[s.sub.Name] = append(got[s.sub.Name], s)
		mu.Unlock()
		WriteJSON(w, code, TicketView{ID: s.sub.Name, Status: status})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	rep, err := ReplayTrace(context.Background(), &Client{BaseURL: srv.URL}, tr)
	if err != nil {
		t.Fatal(err)
	}

	// A 429 is counted as overloaded, not retried, and not decided.
	if n := len(got[shed]); n != 1 {
		t.Errorf("shed arrival posted %d times, want 1", n)
	}
	if rep.Requests != 5 || rep.Overloaded != 1 || rep.Admitted != 4 || rep.Errors != 0 {
		t.Errorf("report %+v, want 5 requests: 4 admitted, 1 overloaded", rep)
	}
	if len(rep.Latencies) != 4 {
		t.Fatalf("%d latencies, want 4", len(rep.Latencies))
	}

	// One offset, svcNow - first, moves every instant of every arrival.
	offset := Instant(svcNow - first)
	// The first due instant is at or before the earliest receipt.
	recv0 := got["a-0"][0].recv
	for _, ss := range got {
		if ss[0].recv.Before(recv0) {
			recv0 = ss[0].recv
		}
	}
	var floors []time.Duration
	for k, a := range arrivals {
		s := got[a.Name][0]
		if d := s.sub.Requests[0].Deadline - Instant(a.Requests[0].Deadline); d != offset {
			t.Errorf("%s: deadline shifted by %v, want %v", a.Name, d.Instant(), offset.Instant())
		}
		if d := s.sub.Sources[0].Available - Instant(a.Sources[0].Available); d != offset {
			t.Errorf("%s: availability shifted by %v, want %v", a.Name, d.Instant(), offset.Instant())
		}
		// Open loop: each arrival goes out on its own schedule, not after
		// the verdicts of the ones before it.
		due := time.Duration(k) * spacing / scale
		if late := s.recv.Sub(recv0) - due; late > hold/2 {
			t.Errorf("%s reached the service %v after its due instant", a.Name, late)
		}
		if a.Name == shed {
			continue
		}
		floors = append(floors, s.out.Sub(recv0)-due)
	}
	// Each latency covers everything from its due instant to the verdict:
	// at least the service's own answer time counted from there. That
	// elementwise floor survives sorting both sides.
	sort.Slice(floors, func(a, b int) bool { return floors[a] < floors[b] })
	var sumLat, sumFloor time.Duration
	for i, lat := range rep.Latencies {
		if lat < floors[i] {
			t.Errorf("latency #%d (sorted) is %v, but the verdicts left at least %v after their due instants", i, lat, floors[i])
		}
		sumLat += lat
		sumFloor += floors[i]
	}
	// The service decides one submission per hold, so the four decided
	// arrivals finish at least 1, 2, 3 and 4 holds after the first was due;
	// from their due instants (0, 20, 30, 40 ms) that is at least
	// 10 holds - 90 ms in all. A closed-loop driver would read 4 holds.
	if want := 10*hold - 90*time.Millisecond; sumLat < want {
		t.Errorf("latencies sum to %v (floor %v), want at least %v: queueing behind the service was not charged",
			sumLat, sumFloor, want)
	}
}
