package shard

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"datastaging/internal/model"
	"datastaging/internal/obs"
	"datastaging/internal/obs/lifecycle"
	"datastaging/internal/resource"
	"datastaging/internal/scenario"
	"datastaging/internal/serve"
	"datastaging/internal/simtime"
	"datastaging/internal/state"
	"datastaging/internal/validator"
)

// Service is the sharded admission service: K per-shard engines behind one
// router that preserves the single-engine HTTP surface. In-shard
// submissions (every source and destination inside one region) go straight
// to that shard's engine — zero cross-shard coordination. Cross-shard
// submissions run the offer/commit round in cross.go.
type Service struct {
	base    *scenario.Scenario
	plan    *Plan
	projs   []*Projection
	engines []*serve.Engine
	opts    serve.Options
	o       *obs.Obs

	// cut is the severed-link set; ledger holds one timeline per cut link,
	// written only by the coordinator (under xmu).
	cut    []model.LinkID
	ledger map[model.LinkID]*resource.LinkTimeline

	mLocal, mCross, mRollbacks *obs.Counter

	// xmu serializes offer/commit rounds: exactly one coordinator may hold
	// proposals on multiple engines at a time (the deadlock contract of
	// serve.Propose).
	xmu sync.Mutex
	// smu[k] orders shard k's item registry against its engine's item
	// numbering: whoever creates the shard's next item (a local Submit or
	// a committed cross leg) holds it across {engine call, registry
	// append}. Locked before the engine's own lock on both paths.
	smu []sync.Mutex

	// gmu guards the global item registry and the cross-ticket book.
	gmu          sync.Mutex
	gItems       []model.Item // global scenario items; ID == index
	gTotalReqs   int
	freeGids     []int   // gids whose submission never entered a shard
	reg          [][]int // per shard: local item index -> global item id
	cross        map[string]*crossTicket
	nextCross    int
	cutTransfers []state.Transfer // global coordinates, coordinator-committed

	memoMu   sync.Mutex
	memoKey  string
	memoView serve.ScheduleView
}

// Ticket is the service-level handle of one submission: either a thin
// wrapper over a shard engine's ticket (local) or a synchronously decided
// cross-shard ticket.
type Ticket struct {
	id    string
	gid   int
	local *serve.Ticket
	pr    *Projection
	view  serve.TicketView // final view of a cross ticket
	done  chan struct{}
}

// ID returns the service-assigned ticket id ("s2-r-7" local, "x-3" cross).
func (t *Ticket) ID() string { return t.id }

// Done is closed when the first verdict is available (immediately for
// cross tickets — the offer/commit round is synchronous).
func (t *Ticket) Done() <-chan struct{} {
	if t.local != nil {
		return t.local.Done()
	}
	return t.done
}

// View returns the ticket's current state in global coordinates.
func (t *Ticket) View() serve.TicketView {
	if t.local != nil {
		return t.pr.ViewToGlobal(t.local.View(), t.gid)
	}
	return t.view
}

// crossTicket is the decided record of one cross-shard submission.
type crossTicket struct {
	view serve.TicketView
	legs []string // leg ticket ids, "s<k>-r-<n>", for the audit trail
}

// New builds the sharded service: one projection and engine per region.
// The base scenario contributes the network, horizon, and γ; it must carry
// no items (a sharded service always starts with an empty request book —
// pre-partitioning a global item load is not supported).
//
// opts is the per-shard engine template: every shard runs one serve.Engine
// with these options over its projected sub-network, TicketPrefix and Shard
// overwritten per shard. Config.Obs is shared, so serve.* metrics aggregate
// across shards; Audit is shared too, with records tagged by shard. Intro
// belongs to the service, not the engines — a single live-phase slot makes
// no sense across K concurrent worlds: it receives per-shard live stats for
// /runinfo (shard.N.epochs, shard.N.queue) and is mounted by Handler.
func New(base *scenario.Scenario, plan *Plan, opts serve.Options) (*Service, error) {
	if err := plan.Validate(base.Network); err != nil {
		return nil, err
	}
	if len(base.Items) > 0 {
		return nil, fmt.Errorf("shard: base scenario carries %d items; a sharded service starts empty", len(base.Items))
	}
	if base.SerialTransfers && plan.NumShards() > 1 {
		return nil, fmt.Errorf("shard: serial-transfer scenarios are not shardable (cut transfers would bypass the per-machine port bookkeeping)")
	}
	s := &Service{
		base:   base,
		plan:   plan,
		opts:   opts,
		o:      opts.Config.Obs,
		ledger: make(map[model.LinkID]*resource.LinkTimeline),
		smu:    make([]sync.Mutex, plan.NumShards()),
		reg:    make([][]int, plan.NumShards()),
		cross:  make(map[string]*crossTicket),
	}
	s.cut = plan.CutLinks(base.Network)
	for _, id := range s.cut {
		s.ledger[id] = resource.NewLinkTimeline(base.Network.Link(id).Window)
	}
	s.mLocal = s.o.Counter("shard.admitted_total")
	s.mCross = s.o.Counter("shard.crossshard_total")
	s.mRollbacks = s.o.Counter("shard.offer_rollbacks_total")
	for k := 0; k < plan.NumShards(); k++ {
		pr, err := Project(base, plan, k)
		if err != nil {
			return nil, err
		}
		eo := opts
		eo.Intro = nil
		eo.TicketPrefix = fmt.Sprintf("s%d-", k)
		shardIdx := k
		eo.Shard = &shardIdx
		eng, err := serve.New(pr.Scenario, eo)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", k, err)
		}
		s.projs = append(s.projs, pr)
		s.engines = append(s.engines, eng)
	}
	if opts.Intro != nil {
		opts.Intro.SetStat("shard.cut_links", strconv.Itoa(len(s.cut)))
		for k := range s.engines {
			eng := s.engines[k]
			opts.Intro.SetLiveStat(fmt.Sprintf("shard.%d.epochs", k), func() string {
				return strconv.Itoa(eng.Schedule().Epochs)
			})
			opts.Intro.SetLiveStat(fmt.Sprintf("shard.%d.queue", k), func() string {
				return strconv.Itoa(eng.Info().Queue)
			})
		}
	}
	return s, nil
}

// Plan returns the service's partition.
func (s *Service) Plan() *Plan { return s.plan }

// allocGID registers the submission's true item in the global scenario and
// returns its id, reusing a freed slot when one exists.
func (s *Service) allocGID(sub serve.Submission) int {
	s.gmu.Lock()
	defer s.gmu.Unlock()
	var gid int
	if n := len(s.freeGids); n > 0 {
		gid = s.freeGids[n-1]
		s.freeGids = s.freeGids[:n-1]
		s.gItems[gid] = sub.Item(model.ItemID(gid))
	} else {
		gid = len(s.gItems)
		s.gItems = append(s.gItems, sub.Item(model.ItemID(gid)))
	}
	s.gTotalReqs += len(sub.Requests)
	return gid
}

// freeGID returns a gid whose submission never entered any shard
// (overload, validation race) so the slot can be reused.
func (s *Service) freeGID(gid int, sub serve.Submission) {
	s.gmu.Lock()
	s.freeGids = append(s.freeGids, gid)
	s.gTotalReqs -= len(sub.Requests)
	s.gmu.Unlock()
}

// shardsOf classifies a (globally validated) submission: the set of shards
// its sources and destinations touch, plus the primary source shard (the
// shard holding the most sources, lowest index on ties).
func (s *Service) shardsOf(sub serve.Submission) (touched []int, srcShard int) {
	seen := make(map[int]bool)
	srcCount := make(map[int]int)
	for _, src := range sub.Sources {
		k := s.plan.Assign[src.Machine]
		srcCount[k]++
		if !seen[k] {
			seen[k] = true
			touched = append(touched, k)
		}
	}
	for _, rq := range sub.Requests {
		k := s.plan.Assign[rq.Machine]
		if !seen[k] {
			seen[k] = true
			touched = append(touched, k)
		}
	}
	srcShard = -1
	for k, c := range srcCount {
		if srcShard == -1 || c > srcCount[srcShard] || (c == srcCount[srcShard] && k < srcShard) {
			srcShard = k
		}
	}
	return touched, srcShard
}

// Submit routes one submission: in-shard straight to its engine, cross-
// shard through the offer/commit round. Errors mirror serve.Submit
// (validation, serve.ErrOverloaded, serve.ErrDraining).
func (s *Service) Submit(sub serve.Submission) (*Ticket, error) {
	if err := sub.Validate(s.base.Network.NumMachines()); err != nil {
		return nil, err
	}
	touched, srcShard := s.shardsOf(sub)
	if len(touched) == 1 {
		return s.submitLocal(sub, touched[0])
	}
	return s.submitCross(sub, srcShard)
}

// submitLocal is the zero-coordination path: translate, register the item
// slot, hand the submission to the shard's engine.
func (s *Service) submitLocal(sub serve.Submission, k int) (*Ticket, error) {
	pr := s.projs[k]
	lsub, err := pr.ToLocal(sub)
	if err != nil {
		return nil, err
	}
	gid := s.allocGID(sub)
	s.smu[k].Lock()
	// The registry entry must exist before the engine can publish a
	// snapshot containing the item (a MaxBatch flush can run inside
	// Submit), so it goes in first and is popped if intake refuses.
	s.reg[k] = append(s.reg[k], gid)
	t, err := s.engines[k].Submit(lsub)
	if err != nil {
		s.reg[k] = s.reg[k][:len(s.reg[k])-1]
		s.smu[k].Unlock()
		s.freeGID(gid, sub)
		return nil, err
	}
	s.smu[k].Unlock()
	s.mLocal.Inc()
	return &Ticket{id: t.ID(), gid: gid, local: t, pr: pr}, nil
}

// TicketView resolves a service ticket id: "x-N" from the cross book, a
// shard prefix ("s2-r-7") from that shard's engine.
func (s *Service) TicketView(id string) (serve.TicketView, bool) {
	if strings.HasPrefix(id, "x-") {
		s.gmu.Lock()
		ct, ok := s.cross[id]
		s.gmu.Unlock()
		if !ok {
			return serve.TicketView{}, false
		}
		return ct.view, true
	}
	k, ok := s.shardOfTicket(id)
	if !ok {
		return serve.TicketView{}, false
	}
	v, ok := s.engines[k].TicketView(id)
	if !ok {
		return serve.TicketView{}, false
	}
	gid, ok := s.gidOf(k, v.Item)
	if !ok {
		return serve.TicketView{}, false
	}
	return s.projs[k].ViewToGlobal(v, gid), true
}

// legTickets returns a cross ticket's per-shard leg ticket ids.
func (s *Service) legTickets(id string) ([]string, bool) {
	s.gmu.Lock()
	ct, ok := s.cross[id]
	s.gmu.Unlock()
	if !ok {
		return nil, false
	}
	return ct.legs, true
}

// Audit returns the recorder every shard's engine shares (nil when
// auditing is off).
func (s *Service) Audit() *lifecycle.Recorder { return s.opts.Audit }

// Trail returns one ticket's audit records. A cross ticket's trail is the
// concatenation of its per-shard legs' trails, each already tagged with its
// shard.
func (s *Service) Trail(id string) []lifecycle.Record {
	legs, ok := s.legTickets(id)
	if !ok {
		return s.opts.Audit.ForTicket(id)
	}
	var records []lifecycle.Record
	for _, leg := range legs {
		records = append(records, s.opts.Audit.ForTicket(leg)...)
	}
	return records
}

func (s *Service) shardOfTicket(id string) (int, bool) {
	if !strings.HasPrefix(id, "s") {
		return 0, false
	}
	dash := strings.IndexByte(id, '-')
	if dash < 0 {
		return 0, false
	}
	k, err := strconv.Atoi(id[1:dash])
	if err != nil || k < 0 || k >= len(s.engines) {
		return 0, false
	}
	return k, true
}

// gidOf maps shard k's local item to its global id (-1 items — tickets
// still queued — map to -1).
func (s *Service) gidOf(k, localItem int) (int, bool) {
	if localItem < 0 {
		return -1, true
	}
	s.gmu.Lock()
	defer s.gmu.Unlock()
	if localItem >= len(s.reg[k]) {
		return 0, false
	}
	return s.reg[k][localItem], true
}

// Advance moves every shard's virtual clock to the same instant, flushing
// pending batches (virtual-clock mode only).
func (s *Service) Advance(to simtime.Instant) error {
	for k, eng := range s.engines {
		if err := eng.Advance(to); err != nil {
			return fmt.Errorf("shard %d: %w", k, err)
		}
	}
	return nil
}

// Err reports the first shard engine's fatal replan error, if any.
func (s *Service) Err() error {
	for k, eng := range s.engines {
		if err := eng.Err(); err != nil {
			return fmt.Errorf("shard %d: %w", k, err)
		}
	}
	return nil
}

// Now returns the current instant (shard 0's clock; Advance keeps virtual
// clocks in lockstep).
func (s *Service) Now() simtime.Instant { return s.engines[0].Now() }

// Drain closes intake on every shard and completes in-flight epochs.
func (s *Service) Drain(ctx context.Context) error {
	var first error
	for k, eng := range s.engines {
		if err := eng.Drain(ctx); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", k, err)
		}
	}
	return first
}

// Scenario reconstructs the global scenario: the full network plus every
// true item the service has seen (border-leg synthetics excluded — they
// exist only inside shard-local worlds). Safe any time; the snapshot is
// consistent under the registry lock.
func (s *Service) Scenario() *scenario.Scenario {
	s.gmu.Lock()
	items := append([]model.Item(nil), s.gItems...)
	s.gmu.Unlock()
	return &scenario.Scenario{
		Name:           s.base.Name,
		Network:        s.base.Network,
		Items:          items,
		GarbageCollect: s.base.GarbageCollect,
		Horizon:        s.base.Horizon,
	}
}

// Schedule returns the merged committed schedule: every shard's transfers
// translated to global coordinates plus the coordinator's cut-link
// transfers, with the weighted objective recomputed over the true global
// scenario by the independent validator (border-leg deliveries don't
// count). Memoized on the epoch vector, so polling between epochs is
// cheap.
func (s *Service) Schedule() serve.ScheduleView {
	views := make([]serve.ScheduleView, len(s.engines))
	key := ""
	for k, eng := range s.engines {
		views[k] = eng.Schedule()
		key += strconv.Itoa(views[k].Epochs) + "."
	}
	s.gmu.Lock()
	key += strconv.Itoa(len(s.cutTransfers))
	s.memoMu.Lock()
	if key == s.memoKey {
		v := s.memoView
		s.memoMu.Unlock()
		s.gmu.Unlock()
		v.Now = serve.Instant(s.Now())
		return v
	}
	s.memoMu.Unlock()
	var merged []state.Transfer // nil while empty: "transfers": null, as the engine encodes it
	for k := range views {
		pr := s.projs[k]
		for _, tr := range views[k].Transfers {
			merged = append(merged, pr.TransferToGlobal(tr, model.ItemID(s.reg[k][tr.Item])))
		}
	}
	merged = append(merged, s.cutTransfers...)
	items := append([]model.Item(nil), s.gItems...)
	totalReqs := s.gTotalReqs
	s.gmu.Unlock()

	gsc := &scenario.Scenario{
		Name:           s.base.Name,
		Network:        s.base.Network,
		Items:          items,
		GarbageCollect: s.base.GarbageCollect,
		Horizon:        s.base.Horizon,
	}
	view := serve.ScheduleView{
		Now:           serve.Instant(s.Now()),
		Items:         len(items),
		TotalRequests: totalReqs,
		Transfers:     merged,
	}
	for k := range views {
		view.Epochs += views[k].Epochs
	}
	if sat, err := validator.SatisfiedSet(gsc, merged); err == nil {
		view.Satisfied = len(sat)
		w := s.opts.Config.Weights
		for id := range sat {
			view.WeightedValue += w.Of(gsc.Request(id).Priority)
		}
	}
	s.memoMu.Lock()
	s.memoKey, s.memoView = key, view
	s.memoMu.Unlock()
	return view
}

// Info merges the per-shard descriptions into the global service
// description plus the partition summary.
func (s *Service) Info() serve.Info {
	first := s.engines[0].Info()
	out := serve.Info{
		Scenario:  s.base.Name,
		Machines:  s.base.Network.NumMachines(),
		Links:     len(s.base.Network.Links),
		Horizon:   serve.Instant(s.base.Horizon),
		Now:       serve.Instant(s.Now()),
		QueueCap:  first.QueueCap,
		MaxBatch:  first.MaxBatch,
		Virtual:   first.Virtual,
		TimeScale: first.TimeScale,
		Scheduler: first.Scheduler,
		CutLinks:  len(s.cut),
	}
	s.gmu.Lock()
	out.Items = len(s.gItems)
	s.gmu.Unlock()
	for k, eng := range s.engines {
		ei := eng.Info()
		out.Queue += ei.Queue
		if ei.QueueCap < out.QueueCap {
			out.QueueCap = ei.QueueCap
		}
		if ei.MaxBatch < out.MaxBatch {
			out.MaxBatch = ei.MaxBatch
		}
		out.Draining = out.Draining || ei.Draining
		sv := eng.Schedule()
		out.Shards = append(out.Shards, serve.ShardInfo{
			Shard:    k,
			Machines: len(s.plan.Shards[k]),
			Links:    ei.Links,
			Items:    ei.Items,
			Epochs:   sv.Epochs,
			Queue:    ei.Queue,
		})
	}
	return out
}
