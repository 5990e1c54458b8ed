package serve

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datastaging/internal/model"
	"datastaging/internal/simtime"
	"datastaging/internal/state"
	"datastaging/internal/testnet"
)

func benchNet() func() *Engine {
	b := testnet.NewBuilder()
	ms := b.Machines(6, 1<<30)
	for i := 0; i < 5; i++ {
		b.Link(ms[i], ms[i+1], 0, 24*time.Hour, 8<<20)
		b.Link(ms[i+1], ms[i], 0, 24*time.Hour, 8<<20)
	}
	sc := b.Build("bench")
	return func() *Engine {
		eng, err := New(sc, Options{
			Config:       cfgC4(nil),
			VirtualClock: true,
			QueueCap:     1 << 20,
		})
		if err != nil {
			panic(err)
		}
		return eng
	}
}

func benchSub(i int) Submission {
	return Submission{
		Name:      fmt.Sprintf("b-%d", i),
		SizeBytes: 256 << 10,
		Sources:   []SourceSpec{{Machine: i % 5}},
		Requests: []RequestSpec{{
			Machine:  5,
			Deadline: Instant(simtime.At(20 * time.Hour)),
			Priority: i % 3,
		}},
	}
}

// BenchmarkServeSoak measures the admission service under a growing world:
// one timed iteration is a complete soak of soakLen submissions, each
// flushed as its own admission epoch on the virtual clock, so the
// committed schedule accumulates within the iteration exactly as it does
// in a long-running daemon. The soak length is fixed — per-epoch cost that
// grows with history shows up as a larger per-soak total, not as an
// unbounded run — and the fullreplay sub-benchmark pins the old
// rebuild-per-epoch cost (O(soakLen²) transfer replays per soak) as the
// baseline the incremental engine (O(soakLen) total) is judged against.
// Diagnosis is off so the replanning path is what's timed.
func BenchmarkServeSoak(b *testing.B) {
	const soakLen = 512
	mkSoak := func(full bool) *Engine {
		bd := testnet.NewBuilder()
		ms := bd.Machines(6, 16<<30)
		for i := 0; i < 5; i++ {
			bd.Link(ms[i], ms[i+1], 0, 24*time.Hour, 8<<20)
			bd.Link(ms[i+1], ms[i], 0, 24*time.Hour, 8<<20)
		}
		sc := bd.Build("soak")
		eng, err := New(sc, Options{
			Config:       cfgC4(nil),
			VirtualClock: true,
			QueueCap:     1 << 20,
		})
		if err != nil {
			panic(err)
		}
		eng.dyn.SetFullReplay(full)
		return eng
	}
	for _, mode := range []struct {
		name string
		full bool
	}{
		{"incremental", false},
		{"fullreplay", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng := mkSoak(mode.full)
				b.StartTimer()
				for j := 0; j < soakLen; j++ {
					if _, err := eng.Submit(benchSub(j)); err != nil {
						b.Fatal(err)
					}
					if err := eng.Advance(simtime.At(time.Duration(j+1) * 100 * time.Millisecond)); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

var benchSink atomic.Int64

// BenchmarkServeRead measures the monitoring pattern: parallel readers
// polling Schedule and Info (the /v1/schedule and /v1/info endpoints) while
// a background goroutine keeps flushing admission epochs. Reads load the
// atomically-published world snapshot instead of taking the engine mutex,
// so poll latency stays flat no matter how heavy the concurrent epochs are
// — before the snapshot layer every poll serialized behind replanning.
func BenchmarkServeRead(b *testing.B) {
	eng := benchNet()()
	for j := 0; j < 64; j++ {
		if _, err := eng.Submit(benchSub(j)); err != nil {
			b.Fatal(err)
		}
	}
	if err := eng.Flush(); err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { // admission load: one epoch per submission until stopped
		defer close(done)
		for j := 64; ; j++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := eng.Submit(benchSub(j)); err != nil {
				return
			}
			if err := eng.Flush(); err != nil {
				return
			}
		}
	}()
	b.ReportAllocs()
	b.SetParallelism(8)
	b.RunParallel(func(pb *testing.PB) {
		n := 0
		for pb.Next() {
			v := eng.Schedule()
			in := eng.Info()
			n += len(v.Transfers) + in.Queue
		}
		benchSink.Add(int64(n))
	})
	b.StopTimer()
	close(stop)
	<-done
}

// BenchmarkServeAdmission measures one admission epoch of 32 submissions:
// intake (serial or from 8 goroutines) plus the epoch replan that decides
// them. The engine is rebuilt per iteration so the committed history —
// which grows with every admit — does not skew later iterations.
func BenchmarkServeAdmission(b *testing.B) {
	const batch = 32
	mk := benchNet()

	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			eng := mk()
			b.StartTimer()
			for j := 0; j < batch; j++ {
				if _, err := eng.Submit(benchSub(j)); err != nil {
					b.Fatal(err)
				}
			}
			if err := eng.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("concurrent8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			eng := mk()
			b.StartTimer()
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for j := 0; j < batch/8; j++ {
						if _, err := eng.Submit(benchSub(g*batch/8 + j)); err != nil {
							b.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if err := eng.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// discardWriter is a ResponseWriter that keeps nothing but its header map.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header         { return d.h }
func (d discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d discardWriter) WriteHeader(int)             {}

// wireView is a typical admitted verdict: two requests, three hops.
func wireView() TicketView {
	return TicketView{
		ID: "r-1234", Status: StatusAdmitted, Item: 1234,
		Epoch: Instant(5 * time.Hour), Arrived: Instant(5 * time.Hour),
		Requests: []RequestVerdict{
			{Request: model.RequestID{Item: 1234}, Machine: 17, Status: StatusAdmitted,
				Deadline: Instant(7 * time.Hour), Completion: Instant(5*time.Hour + 90*time.Second)},
			{Request: model.RequestID{Item: 1234, Index: 1}, Machine: 23, Status: StatusRejected,
				Deadline: Instant(6 * time.Hour), Reason: "starved-by-contention", BlamedLink: 41},
		},
		Route: []state.Transfer{
			{Item: 1234, Link: 3, From: 2, To: 9, Start: simtime.Instant(5 * time.Hour), Duration: 30 * time.Second, Arrival: simtime.Instant(5*time.Hour + 30*time.Second)},
			{Item: 1234, Link: 40, From: 9, To: 17, Start: simtime.Instant(5*time.Hour + 30*time.Second), Duration: time.Minute, Arrival: simtime.Instant(5*time.Hour + 90*time.Second)},
			{Item: 1234, Link: 41, From: 17, To: 18, Start: simtime.Instant(5*time.Hour + 90*time.Second), Duration: time.Minute, Arrival: simtime.Instant(5*time.Hour + 150*time.Second)},
		},
	}
}

// wireBody is the benchmark's body for a two-destination submission.
const wireBody = `{"name":"w-001234","sizeBytes":48318382,"sources":[{"machine":2}],"requests":[{"machine":17,"deadline":25200000000000,"priority":2},{"machine":23,"deadline":21600000000000,"priority":0}]}`

// BenchmarkWire times the hand-coded per-request documents of POST
// /v1/requests: decode reads and parses wireBody through decodeBody, encode
// writes wireView through writeTicket. Both run against a discarding
// ResponseWriter, so only the coding is timed.
func BenchmarkWire(b *testing.B) {
	w := discardWriter{h: http.Header{}}
	b.Run("decode", func(b *testing.B) {
		body := strings.NewReader(wireBody)
		r := postBody(nil)
		r.Body = io.NopCloser(body)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			body.Reset(wireBody)
			var sub Submission
			if !decodeBody(w, r, &sub) {
				b.Fatal("canonical body refused")
			}
			benchSink.Add(sub.SizeBytes)
		}
	})
	b.Run("encode", func(b *testing.B) {
		v := wireView()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			writeTicket(w, http.StatusAccepted, &v)
		}
	})
}
