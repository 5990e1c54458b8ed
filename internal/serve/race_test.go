package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"datastaging/internal/model"
	"datastaging/internal/obs"
	"datastaging/internal/scenario"
	"datastaging/internal/simtime"
	"datastaging/internal/testnet"
	"datastaging/internal/validator"
)

// hammerNet is a four-machine bidirectional line, open all day and wide
// enough that thousands of small items are all admitted.
func hammerNet() *scenario.Scenario {
	b := testnet.NewBuilder()
	ms := b.Machines(4, 1<<30)
	for i := 0; i < 3; i++ {
		b.Link(ms[i], ms[i+1], 0, 24*time.Hour, 1<<20)
		b.Link(ms[i+1], ms[i], 0, 24*time.Hour, 1<<20)
	}
	return b.Build("hammer")
}

// hammerSubmission is worker g's i-th request: a small item from one of
// machines 0..2 to machine 3, which is never a source.
func hammerSubmission(g, i int) Submission {
	return Submission{
		Name:      fmt.Sprintf("g%d-%d", g, i),
		SizeBytes: 64 << 10,
		Sources:   []SourceSpec{{Machine: g % 3}},
		Requests: []RequestSpec{{
			Machine:  3,
			Deadline: Instant(simtime.At(20 * time.Hour)),
			Priority: (g + i) % 3,
		}},
	}
}

// TestSubmitHammer slams Submit from 16 goroutines in wall-clock mode —
// the configuration the race detector cares about, since epochs flush
// concurrently with intake — then drains and checks the books: every
// ticket resolved, metrics consistent with verdicts, and the final
// schedule clean under the independent validator with the scheduler's own
// paranoid self-checks enabled throughout.
func TestSubmitHammer(t *testing.T) {
	const (
		goroutines = 16
		perG       = 8
	)
	sc := hammerNet()

	o := obs.New()
	cfg := cfgC4(o)
	cfg.Paranoid = true
	eng, err := New(sc, Options{
		Config:    cfg,
		QueueCap:  64,
		TimeScale: 1, // the whole run fits in the first simulated seconds
	})
	if err != nil {
		t.Fatal(err)
	}

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		tickets []*Ticket
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				sub := hammerSubmission(g, i)
				for {
					tk, err := eng.Submit(sub)
					if err == ErrOverloaded {
						time.Sleep(time.Millisecond)
						continue
					}
					if err != nil {
						t.Errorf("g%d submit %d: %v", g, i, err)
						return
					}
					mu.Lock()
					tickets = append(tickets, tk)
					mu.Unlock()
					break
				}
			}
		}(g)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := eng.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	if len(tickets) != goroutines*perG {
		t.Fatalf("placed %d submissions, want %d", len(tickets), goroutines*perG)
	}
	admitted := 0
	for _, tk := range tickets {
		select {
		case <-tk.Done():
		default:
			t.Fatalf("ticket %s unresolved after drain", tk.ID())
		}
		v := tk.View()
		switch v.Status {
		case StatusAdmitted:
			admitted++
		case StatusQueued:
			t.Errorf("ticket %s still queued", tk.ID())
		}
	}
	if admitted == 0 {
		t.Error("hammer admitted nothing on an uncongested network")
	}
	if n := o.Counter("serve.admitted_total").Value(); n != int64(admitted) {
		t.Errorf("serve.admitted_total = %d, but %d tickets are admitted", n, admitted)
	}
	if epochs := eng.Schedule().Epochs; int64(epochs) != o.Counter("serve.epochs_total").Value() {
		t.Errorf("epoch count mismatch: view %d vs counter %d",
			epochs, o.Counter("serve.epochs_total").Value())
	}

	sv := eng.Schedule()
	if err := validator.Validate(eng.Scenario(), sv.Transfers); err != nil {
		t.Errorf("hammered schedule failed independent validation: %v", err)
	}
	// The weighted objective must equal the sum over admitted verdicts.
	var want float64
	for _, tk := range tickets {
		for _, rv := range tk.View().Requests {
			if rv.Status == StatusAdmitted {
				want += model.Weights1x10x100.Of(model.Priority(
					eng.Scenario().Items[tk.View().Item].Requests[rv.Request.Index].Priority))
			}
		}
	}
	if sv.WeightedValue != want {
		t.Errorf("weighted value %v, verdicts sum to %v", sv.WeightedValue, want)
	}
}

// TestGroupCommitConservation: under the group-commit loop every accepted
// submission lands in exactly one epoch. Eight closed-loop submitters keep
// at most eight tickets outstanding, so a queue bounded at eight never
// sheds, no epoch is larger than eight, and the batch sizes sum to the
// submissions.
func TestGroupCommitConservation(t *testing.T) {
	const (
		goroutines = 8
		perG       = 250
		total      = goroutines * perG
	)
	o := obs.New()
	eng, err := New(hammerNet(), Options{Config: cfgC4(o), QueueCap: goroutines})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tk, err := eng.SubmitWait(ctx, hammerSubmission(g, i))
				if err != nil {
					t.Errorf("g%d submit %d: %v", g, i, err)
					return
				}
				if v := tk.View(); v.Status == StatusQueued {
					t.Errorf("ticket %s still queued after SubmitWait", tk.ID())
				}
			}
		}(g)
	}
	wg.Wait()
	if err := eng.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	snap := o.Snapshot()
	decided := 0
	for _, tk := range eng.tickets {
		if tk.View().Status != StatusQueued {
			decided++
		}
	}
	if decided != total {
		t.Errorf("%d tickets decided, want %d", decided, total)
	}
	batches := snap.Histograms["serve.batch_size"]
	if batches.Sum != total {
		t.Errorf("serve.batch_size sum = %v, want %d", batches.Sum, total)
	}
	for i, n := range batches.Counts {
		if n > 0 && (i == len(batches.Bounds) || batches.Bounds[i] > goroutines) {
			t.Errorf("%d epochs in batch-size bucket %d, beyond the %d outstanding tickets", n, i, goroutines)
		}
	}
	epochs := snap.Counters["serve.epochs_total"]
	if epochs > total || epochs != batches.Count {
		t.Errorf("serve.epochs_total = %d with %d batches observed, want equal and at most %d",
			epochs, batches.Count, total)
	}
	if n := snap.Counters["serve.rejected_backpressure_total"]; n != 0 {
		t.Errorf("queue bound %d shed %d submissions", goroutines, n)
	}
	if got := snap.Histograms["serve.layer_queue_wait_seconds"].Count; got != total {
		t.Errorf("serve.layer_queue_wait_seconds count = %d, want %d", got, total)
	}
	if err := validator.Validate(eng.Scenario(), eng.Schedule().Transfers); err != nil {
		t.Errorf("final schedule failed independent validation: %v", err)
	}
}
