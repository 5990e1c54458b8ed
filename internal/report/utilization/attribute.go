package utilization

import (
	"fmt"
	"sort"
	"time"

	"datastaging/internal/explain"
	"datastaging/internal/model"
	"datastaging/internal/scenario"
	"datastaging/internal/simtime"
	"datastaging/internal/state"
)

// Bottleneck aggregates blame for one link: how many unsatisfied requests
// the explain diagnosis traced to contention on it, and how much of the
// schedule's traffic occupied it while those requests needed it.
type Bottleneck struct {
	Link model.LinkID
	From model.MachineID
	To   model.MachineID
	// Blamed is the number of starved requests whose ideal path was most
	// obstructed on this link.
	Blamed int
	// Requests lists them, in (item, index) order.
	Requests []model.RequestID
	// BlockedTime is the total time committed transfers overlapped those
	// requests' ideal slots on this link.
	BlockedTime time.Duration
}

// Attribution is the bottleneck-attribution table of one run: every
// unsatisfied request classified by its explain verdict, and the starved
// ones aggregated by the link their starvation is blamed on.
type Attribution struct {
	Unsatisfied int
	// Starved, InfeasibleAlone, and DeliveredLate count the unsatisfied
	// requests per verdict.
	Starved         int
	InfeasibleAlone int
	DeliveredLate   int
	// Bottlenecks is ordered most-blamed first (ties: lower link ID).
	Bottlenecks []Bottleneck
}

// Attribute diagnoses every unsatisfied request of a finished run and
// aggregates the blame: for each request the explain package classifies as
// starved, the ideal-path link whose committed traffic overlapped the
// request's ideal slots the longest is charged. The result is the paper's
// oversubscription made visible — which links' scarcity cost how many
// requests.
func Attribute(sc *scenario.Scenario, transfers []state.Transfer, satisfied map[model.RequestID]simtime.Instant) (*Attribution, error) {
	a := &Attribution{}
	byLink := make(map[model.LinkID]*Bottleneck)
	var diag explain.Diagnoser
	for _, id := range sc.Requests() {
		if _, ok := satisfied[id]; ok {
			continue
		}
		a.Unsatisfied++
		rep, err := diag.Diagnose(sc, transfers, id)
		if err != nil {
			return nil, fmt.Errorf("utilization: %v: %w", id, err)
		}
		switch rep.Verdict {
		case explain.InfeasibleAlone:
			a.InfeasibleAlone++
		case explain.DeliveredLate:
			a.DeliveredLate++
		case explain.Starved:
			a.Starved++
			link, blocked, ok := rep.BlamedLink()
			if !ok {
				continue
			}
			b, seen := byLink[link]
			if !seen {
				l := sc.Network.Link(link)
				b = &Bottleneck{Link: link, From: l.From, To: l.To}
				byLink[link] = b
			}
			b.Blamed++
			b.Requests = append(b.Requests, id)
			b.BlockedTime += blocked
		}
	}
	a.Bottlenecks = make([]Bottleneck, 0, len(byLink))
	for _, b := range byLink {
		a.Bottlenecks = append(a.Bottlenecks, *b)
	}
	sort.Slice(a.Bottlenecks, func(i, j int) bool {
		if a.Bottlenecks[i].Blamed != a.Bottlenecks[j].Blamed {
			return a.Bottlenecks[i].Blamed > a.Bottlenecks[j].Blamed
		}
		return a.Bottlenecks[i].Link < a.Bottlenecks[j].Link
	})
	return a, nil
}

// Rows renders the attribution as text-report table rows: one line per
// blamed link, most-blamed first.
func (a *Attribution) Rows() ([]string, [][]string) {
	headers := []string{"link", "route", "starved reqs", "blocked time"}
	rows := make([][]string, 0, len(a.Bottlenecks))
	for _, b := range a.Bottlenecks {
		rows = append(rows, []string{
			fmt.Sprintf("L%d", b.Link),
			fmt.Sprintf("m%d→m%d", b.From, b.To),
			fmt.Sprintf("%d", b.Blamed),
			b.BlockedTime.Round(time.Millisecond).String(),
		})
	}
	return headers, rows
}

// Summary returns a one-line synopsis of the attribution for report
// headers and logs.
func (a *Attribution) Summary() string {
	if a.Unsatisfied == 0 {
		return "all requests satisfied"
	}
	s := fmt.Sprintf("%d unsatisfied (%d starved, %d infeasible alone, %d late)",
		a.Unsatisfied, a.Starved, a.InfeasibleAlone, a.DeliveredLate)
	if len(a.Bottlenecks) > 0 {
		b := a.Bottlenecks[0]
		s += fmt.Sprintf("; top bottleneck L%d m%d→m%d blamed for %d",
			b.Link, b.From, b.To, b.Blamed)
	}
	return s
}
