package core

import (
	"math"

	"datastaging/internal/dijkstra"
	"datastaging/internal/model"
)

// minSlackSeconds floors the magnitude of the urgency term in C3's ratio so
// a zero-slack request divides by a tiny negative number instead of zero
// (the paper itself observes C3 suffers from "one very small Urgency"
// dominating the cost — we keep that behavior but make it finite).
const minSlackSeconds = 1e-9

// destInfo is one satisfiable, not-yet-satisfied request reachable through
// a candidate's next machine: the ingredients of Efp and Urgency (§4.8).
type destInfo struct {
	req     model.RequestID
	machine model.MachineID
	// weight is W[Priority[i,j]]; with Sat = 1 this is Efp[i,r](j).
	weight float64
	// slackSec is Rft[i,j] - A_T[i,j] in seconds, >= 0 for a satisfiable
	// request; Urgency[i,r](j) = -slackSec.
	slackSec float64
}

func (d destInfo) urgency() float64 { return -d.slackSec }

// cost1 is C1 for this single destination:
// -W_E*Efp - W_U*Urgency = -W_E*weight + W_U*slack.
func (d destInfo) cost1(eu EUWeights) float64 {
	return -eu.WE*d.weight + eu.WU*d.slackSec
}

// candidate is one valid next communication step: the first hop of item's
// current shortest-path forest toward the next machine hop.To, annotated
// with Drq[i, r] — every satisfiable destination whose path starts with
// that hop — and with what cost makes of them. A candidate's cost depends
// only on its dests and the Config, so the planner costs it once, when it
// builds the group, and selection (before) reads the stored values.
type candidate struct {
	item  model.ItemID
	hop   dijkstra.Hop
	dests []destInfo
	// score and bestDest are cost's two results.
	score    float64
	bestDest int
}

// cost evaluates the configured criterion for the candidate and returns the
// criterion value together with the index of the candidate's best single
// destination — the criterion's own value restricted to that destination —
// which FullPathOneDest uses as its "lowest cost destination". Ranking
// destinations by the criterion itself keeps C3 and C5 independent of the
// E-U ratio under every heuristic, the property the paper highlights for
// C3 (§5.4).
func (c *candidate) cost(cfg Config) (float64, int) {
	best := 0
	bestSingle := math.Inf(1)
	for j, d := range c.dests {
		var v float64
		switch cfg.Criterion {
		case C3:
			urg := d.urgency()
			if urg > -minSlackSeconds {
				urg = -minSlackSeconds
			}
			v = d.weight / urg
		case C5:
			v = -d.weight * urgencyFactor(d.slackSec)
		default:
			v = d.cost1(cfg.EU)
		}
		if v < bestSingle {
			bestSingle = v
			best = j
		}
	}
	switch cfg.Criterion {
	case C1:
		// C1 scores a single (item, destination) pair; the candidate's C1
		// value is its best pair.
		return bestSingle, best
	case C2:
		// -W_E * ΣEfp - W_U * max Urgency: the most urgent satisfiable
		// destination carries the urgency term.
		var sumW float64
		maxUrg := math.Inf(-1)
		for _, d := range c.dests {
			sumW += d.weight
			if u := d.urgency(); u > maxUrg {
				maxUrg = u
			}
		}
		return -cfg.EU.WE*sumW - cfg.EU.WU*maxUrg, best
	case C3:
		// Σ Efp/Urgency: priority normalized by urgency, summed over the
		// satisfiable destinations; independent of W_E and W_U.
		var sum float64
		for _, d := range c.dests {
			urg := d.urgency()
			if urg > -minSlackSeconds {
				urg = -minSlackSeconds
			}
			sum += d.weight / urg
		}
		return sum, best
	case C4:
		// -W_E * ΣEfp - W_U * ΣUrgency: both terms summed.
		var sumW, sumUrg float64
		for _, d := range c.dests {
			sumW += d.weight
			sumUrg += d.urgency()
		}
		return -cfg.EU.WE*sumW - cfg.EU.WU*sumUrg, best
	case C5:
		// Extension: -Σ Efp · τ/(τ + slack) — C3's priority-urgency
		// association with the urgency influence bounded, so one
		// near-zero slack scales its own weight by at most 1 instead of
		// dominating the whole sum. E-U independent, like C3.
		var sum float64
		for _, d := range c.dests {
			sum += d.weight * urgencyFactor(d.slackSec)
		}
		return -sum, best
	default:
		return math.Inf(1), best
	}
}

// c5Tau is the slack scale of the C5 urgency factor: a request with ten
// minutes of slack contributes half its weight, a zero-slack request its
// full weight.
const c5Tau = 600.0 // seconds

func urgencyFactor(slackSec float64) float64 {
	if slackSec < 0 {
		slackSec = 0
	}
	return c5Tau / (c5Tau + slackSec)
}

// before reports whether c comes before o in selection order: the lower
// cost, with ties broken deterministically by the earlier (item, next
// machine, link) so runs are reproducible.
func (c *candidate) before(o *candidate) bool {
	if c.score < o.score {
		return true
	}
	if c.score > o.score {
		return false
	}
	if c.item != o.item {
		return c.item < o.item
	}
	if c.hop.To != o.hop.To {
		return c.hop.To < o.hop.To
	}
	return c.hop.Link < o.hop.Link
}
