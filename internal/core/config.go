// Package core implements the paper's data staging heuristics (§4): the
// partial path heuristic, the full path/one destination heuristic, and the
// full path/all destinations heuristic, each driven by one of the four cost
// criteria C1–C4 built from effective priority and urgency (§4.8).
//
// All three heuristics share the same engine: a plan cache of per-item
// shortest-path forests (internal/dijkstra) over a shared resource state
// (internal/state). Each iteration selects the cheapest valid next
// communication step under the configured cost criterion and commits one
// hop, one full path, or one full tree of paths depending on the heuristic.
//
// The paper notes that re-running Dijkstra for every item on every
// iteration is unnecessary when a committed transfer touches none of the
// resources an item's forest uses, but leaves that optimization
// unimplemented; this package implements it exactly (resources only ever
// shrink, so an unaffected cached forest remains optimal) — results are
// identical to the naive re-run, only faster. Tests in planner_test.go
// cross-check the two.
package core

import (
	"errors"
	"fmt"
	"math"

	"datastaging/internal/model"
	"datastaging/internal/obs"
)

// Heuristic selects which of the paper's three scheduling strategies to run.
type Heuristic int

// The three heuristics of §4.5–§4.7.
const (
	// PartialPath schedules one hop of the single cheapest request per
	// iteration (§4.5, "partial" in the figures).
	PartialPath Heuristic = iota + 1
	// FullPathOneDest schedules every hop needed to bring the cheapest
	// item to its lowest-cost destination (§4.6, "full_one").
	FullPathOneDest
	// FullPathAllDests schedules the whole tree of paths from the cheapest
	// item to every satisfiable destination sharing the chosen next
	// machine (§4.7, "full_all").
	FullPathAllDests
)

// String returns the figure label used in the paper.
func (h Heuristic) String() string {
	switch h {
	case PartialPath:
		return "partial"
	case FullPathOneDest:
		return "full_one"
	case FullPathAllDests:
		return "full_all"
	default:
		return fmt.Sprintf("heuristic(%d)", int(h))
	}
}

// Criterion selects one of the four cost criteria of §4.8.
type Criterion int

// The four cost criteria. C1 scores one (item, destination) pair; C2–C4
// aggregate over every satisfiable destination whose shortest path shares
// the candidate next machine. C5 is this library's extension: the paper
// observes that C3's priority/urgency ratio lets "one very small Urgency"
// dominate the cost and suggests future criteria "designed to capture the
// original intent" (§5.4); C5 is that criterion — each destination
// contributes its weight scaled by the bounded urgency factor
// τ/(τ + slack), so an urgent request boosts its item by at most its full
// weight instead of without limit. Like C3 it is independent of W_E/W_U.
const (
	C1 Criterion = iota + 1
	C2
	C3
	C4
	C5
)

// String returns the paper's name for the criterion (C5 is the extension).
func (c Criterion) String() string {
	if c >= C1 && c <= C5 {
		return fmt.Sprintf("C%d", int(c))
	}
	return fmt.Sprintf("criterion(%d)", int(c))
}

// EUWeights carries the relative weights W_E (effective priority) and W_U
// (urgency) of §4.8. Only the ratio matters for C1, C2, and C4; C3 ignores
// both. The paper sweeps log10(W_E/W_U) from -3 to 5 plus the two extremes.
type EUWeights struct {
	WE float64
	WU float64
}

// The two extreme points of the paper's E-U sweep: "inf" considers only
// effective priority, "-inf" only urgency.
var (
	EUPriorityOnly = EUWeights{WE: 1, WU: 0}
	EUUrgencyOnly  = EUWeights{WE: 0, WU: 1}
)

// EUFromLog10 returns the weights for one interior sweep point:
// W_E = 10^l, W_U = 1.
func EUFromLog10(l float64) EUWeights {
	return EUWeights{WE: math.Pow(10, l), WU: 1}
}

// Label renders the weights as the paper's sweep axis value: the log10 of
// the E-U ratio, rounded to shed floating-point noise from Pow/Log10 round
// trips.
func (eu EUWeights) Label() string {
	switch {
	case eu.WU == 0:
		return "inf"
	case eu.WE == 0:
		return "-inf"
	default:
		l := math.Log10(eu.WE / eu.WU)
		return fmt.Sprintf("%g", math.Round(l*1e6)/1e6)
	}
}

// Config selects a heuristic/cost-criterion pair with its weightings.
type Config struct {
	Heuristic Heuristic
	Criterion Criterion
	// EU weights the effective-priority and urgency terms. Ignored by C3
	// and C5.
	EU EUWeights
	// Weights maps priorities to W[p]; required.
	Weights model.Weights
	// Paranoid drops every cached forest on every commit, reproducing the
	// paper's re-run-Dijkstra-each-iteration implementation. The schedule
	// produced is identical to the conflict-tracking cache (the
	// equivalence suites prove it), only slower; this is a debugging and
	// testing knob, never a production setting.
	Paranoid bool
	// Obs, when non-nil, receives the run's metrics, phase timings, and
	// scheduling events (see internal/obs and DESIGN.md "Observability").
	// Purely observational: it never changes the schedule. Nil disables
	// instrumentation at approximately zero cost. An Obs may be shared by
	// concurrent runs; all instruments are atomic.
	Obs *obs.Obs
}

// Validate rejects malformed configurations, including the twelfth pairing
// the paper rules out: FullPathAllDests with C1 "did not make sense and was
// not examined" (§6), because C1 cannot express sending one item to
// multiple destinations.
func (c Config) Validate() error {
	if c.Heuristic < PartialPath || c.Heuristic > FullPathAllDests {
		return fmt.Errorf("core: unknown heuristic %d", c.Heuristic)
	}
	if c.Criterion < C1 || c.Criterion > C5 {
		return fmt.Errorf("core: unknown criterion %d", c.Criterion)
	}
	if c.Heuristic == FullPathAllDests && c.Criterion == C1 {
		return errors.New("core: full_all with C1 is the excluded pairing (paper §6)")
	}
	if len(c.Weights) == 0 {
		return errors.New("core: no priority weights")
	}
	if c.Criterion != C3 && c.Criterion != C5 {
		if c.EU.WE < 0 || c.EU.WU < 0 {
			return errors.New("core: negative E-U weights")
		}
		if c.EU.WE == 0 && c.EU.WU == 0 {
			return errors.New("core: both E-U weights zero")
		}
	}
	return nil
}

// Pair names one heuristic/cost-criterion combination.
type Pair struct {
	Heuristic Heuristic
	Criterion Criterion
}

// String returns the paper-style label, e.g. "full_one/C4".
func (p Pair) String() string { return p.Heuristic.String() + "/" + p.Criterion.String() }

// Pairs enumerates the paper's eleven meaningful heuristic/criterion pairs
// (C5, the extension criterion, is not included; see PairsWithExtensions).
func Pairs() []Pair {
	return pairs([]Criterion{C1, C2, C3, C4})
}

// PairsWithExtensions enumerates the paper's pairs plus the C5 extension
// under every heuristic: fourteen pairs.
func PairsWithExtensions() []Pair {
	return pairs([]Criterion{C1, C2, C3, C4, C5})
}

func pairs(criteria []Criterion) []Pair {
	var out []Pair
	for _, h := range []Heuristic{PartialPath, FullPathOneDest, FullPathAllDests} {
		for _, c := range criteria {
			if h == FullPathAllDests && c == C1 {
				continue
			}
			out = append(out, Pair{Heuristic: h, Criterion: c})
		}
	}
	return out
}
