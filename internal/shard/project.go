package shard

import (
	"fmt"

	"datastaging/internal/model"
	"datastaging/internal/scenario"
	"datastaging/internal/serve"
	"datastaging/internal/state"
)

// Projection is one shard's view of the world: the induced sub-network
// (the region's machines, renumbered 0..n-1, and every link whose two
// endpoints are in-region) plus the translation tables between global and
// local coordinates. Cut links are excluded — a shard's engine can never
// plan onto them, which is what makes the coordinator's cut-link ledger
// the single writer of cross-shard capacity.
type Projection struct {
	Shard int
	// ToLocalM maps a global machine ID to its local index, -1 when the
	// machine is outside the region.
	ToLocalM []int
	// ToGlobalM and ToGlobalL map local machine/link indices back.
	ToGlobalM []model.MachineID
	ToGlobalL []model.LinkID
	// Scenario is the projected base scenario: the sub-network plus the
	// global horizon, γ, and serial-transfer mode. Items start empty — a
	// sharded service always starts with an empty request book.
	Scenario *scenario.Scenario
}

// Project builds shard s's projection of the base scenario.
func Project(base *scenario.Scenario, p *Plan, s int) (*Projection, error) {
	ms := p.Shards[s]
	pr := &Projection{
		Shard:     s,
		ToLocalM:  make([]int, base.Network.NumMachines()),
		ToGlobalM: append([]model.MachineID(nil), ms...),
	}
	for i := range pr.ToLocalM {
		pr.ToLocalM[i] = -1
	}
	machines := make([]model.Machine, len(ms))
	for i, gm := range ms {
		pr.ToLocalM[gm] = i
		machines[i] = *base.Network.Machine(gm)
		machines[i].ID = model.MachineID(i)
	}
	var links []model.VirtualLink
	for i := range base.Network.Links {
		l := base.Network.Links[i]
		if p.Assign[l.From] != s || p.Assign[l.To] != s {
			continue
		}
		pr.ToGlobalL = append(pr.ToGlobalL, l.ID)
		l.From = model.MachineID(pr.ToLocalM[l.From])
		l.To = model.MachineID(pr.ToLocalM[l.To])
		l.ID = model.LinkID(len(links))
		links = append(links, l)
	}
	net, err := model.NewNetwork(machines, links)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", s, err)
	}
	pr.Scenario = &scenario.Scenario{
		Name:            fmt.Sprintf("%s/shard%d", base.Name, s),
		Network:         net,
		GarbageCollect:  base.GarbageCollect,
		Horizon:         base.Horizon,
		SerialTransfers: base.SerialTransfers,
	}
	return pr, nil
}

// Contains reports whether the global machine is in this shard.
func (pr *Projection) Contains(m int) bool {
	return m >= 0 && m < len(pr.ToLocalM) && pr.ToLocalM[m] != -1
}

// ToLocal translates a whole submission into the shard's coordinates. The
// caller guarantees every referenced machine is in-region (the router's
// classification did that); out-of-region machines error defensively.
func (pr *Projection) ToLocal(sub serve.Submission) (serve.Submission, error) {
	out := sub
	out.Sources = make([]serve.SourceSpec, len(sub.Sources))
	for i, src := range sub.Sources {
		if !pr.Contains(src.Machine) {
			return out, fmt.Errorf("shard %d: source machine %d outside region", pr.Shard, src.Machine)
		}
		out.Sources[i] = src
		out.Sources[i].Machine = pr.ToLocalM[src.Machine]
	}
	out.Requests = make([]serve.RequestSpec, len(sub.Requests))
	for i, rq := range sub.Requests {
		if !pr.Contains(rq.Machine) {
			return out, fmt.Errorf("shard %d: request machine %d outside region", pr.Shard, rq.Machine)
		}
		out.Requests[i] = rq
		out.Requests[i].Machine = pr.ToLocalM[rq.Machine]
	}
	return out, nil
}

// TransferToGlobal translates one committed transfer back to global
// machine/link coordinates and retags it with the global item id.
func (pr *Projection) TransferToGlobal(tr state.Transfer, gid model.ItemID) state.Transfer {
	tr.Item = gid
	tr.Link = pr.ToGlobalL[tr.Link]
	tr.From = pr.ToGlobalM[tr.From]
	tr.To = pr.ToGlobalM[tr.To]
	return tr
}

// ViewToGlobal translates a ticket view into global coordinates: verdict
// machines, route transfers, and the item id (a queued ticket has none yet
// and keeps its -1). Request IDs inside verdicts keep their local item id —
// the ticket id, not the request id, is the external handle.
func (pr *Projection) ViewToGlobal(v serve.TicketView, gid int) serve.TicketView {
	if v.Item >= 0 {
		v.Item = gid
	}
	for i := range v.Requests {
		v.Requests[i].Machine = int(pr.ToGlobalM[v.Requests[i].Machine])
		if v.Requests[i].BlamedLink >= 0 {
			v.Requests[i].BlamedLink = int(pr.ToGlobalL[v.Requests[i].BlamedLink])
		}
	}
	for i := range v.Route {
		v.Route[i] = pr.TransferToGlobal(v.Route[i], model.ItemID(gid))
	}
	return v
}
