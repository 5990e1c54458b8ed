package report

import (
	"fmt"
	"time"

	"datastaging/internal/core"
	"datastaging/internal/experiment"
	"datastaging/internal/obs/lifecycle"
	"datastaging/internal/workload"
)

// flat repeats a bound across every sweep point so it renders as a
// horizontal line, as in the paper's Figure 2.
func flat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// Figure2 assembles the paper's Figure 2: the two upper bounds, the two
// random lower bounds, and each heuristic's best cost criterion (C4) across
// the E-U sweep.
func Figure2(res *experiment.Result) ([]string, []Series) {
	n := len(res.SweepLabels)
	series := []Series{
		{Name: "upper_bound", Values: flat(res.Upper.Mean, n)},
		{Name: "possible_satisfy", Values: flat(res.PossibleSatisfy.Mean, n)},
	}
	for _, h := range []core.Heuristic{core.PartialPath, core.FullPathOneDest, core.FullPathAllDests} {
		if ps, ok := res.PairByName(h, core.C4); ok {
			series = append(series, Series{Name: h.String() + " (C4)", Values: pairValues(ps)})
		}
	}
	series = append(series,
		Series{Name: "random_Dijkstra", Values: flat(res.RandomDijkstra.Mean, n)},
		Series{Name: "single_Dij_random", Values: flat(res.SingleDijkstraRandom.Mean, n)},
	)
	return res.SweepLabels, series
}

// FigureCriteria assembles Figures 3, 4, or 5: one heuristic's cost
// criteria across the E-U sweep. The C5 extension appears as an extra
// series when the study included it.
func FigureCriteria(res *experiment.Result, h core.Heuristic) ([]string, []Series) {
	var series []Series
	for _, c := range []core.Criterion{core.C1, core.C2, core.C3, core.C4, core.C5} {
		ps, ok := res.PairByName(h, c)
		if !ok {
			continue
		}
		series = append(series, Series{Name: c.String(), Values: pairValues(ps)})
	}
	return res.SweepLabels, series
}

func pairValues(ps *experiment.PairSweep) []float64 {
	out := make([]float64, len(ps.Points))
	for i := range ps.Points {
		out[i] = ps.Points[i].Value.Mean
	}
	return out
}

// BoundsRows renders the bound and baseline aggregates as table rows.
func BoundsRows(res *experiment.Result) ([]string, [][]string) {
	headers := []string{"series", "mean", "min", "max"}
	row := func(name string, s experiment.Stat) []string {
		return []string{name, fmt.Sprintf("%.1f", s.Mean), fmt.Sprintf("%.1f", s.Min), fmt.Sprintf("%.1f", s.Max)}
	}
	return headers, [][]string{
		row("upper_bound", res.Upper),
		row("possible_satisfy", res.PossibleSatisfy),
		row("priority_first", res.PriorityFirst),
		row("random_Dijkstra", res.RandomDijkstra),
		row("single_Dij_random", res.SingleDijkstraRandom),
	}
}

// ExtrasRows renders the technical-report extras for every pair at its best
// sweep point: weighted value with min/max band, mean hops per satisfied
// request, mean Dijkstra executions, mean heuristic execution time, and the
// mean busy fraction of each run's bottleneck link.
func ExtrasRows(res *experiment.Result) ([]string, [][]string) {
	headers := []string{"pair", "best E-U", "mean", "min", "max", "hops", "dijkstras", "exec time", "bneck busy"}
	var rows [][]string
	for i := range res.Pairs {
		ps := &res.Pairs[i]
		bi := ps.BestPoint()
		pt := &ps.Points[bi]
		rows = append(rows, []string{
			ps.Pair.String(),
			res.SweepLabels[bi],
			fmt.Sprintf("%.1f", pt.Value.Mean),
			fmt.Sprintf("%.1f", pt.Value.Min),
			fmt.Sprintf("%.1f", pt.Value.Max),
			fmt.Sprintf("%.2f", pt.MeanHops),
			fmt.Sprintf("%.0f", pt.MeanDijkstraRuns),
			pt.MeanElapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.3f", pt.MeanBottleneckBusy),
		})
	}
	return headers, rows
}

// WeightingRows renders the §5.4 weighting-scheme comparison: per-priority
// mean satisfied counts for one pair at its best sweep point, under two
// studies that differ only in the weighting scheme.
func WeightingRows(name1 string, res1 *experiment.Result, name2 string, res2 *experiment.Result, h core.Heuristic, c core.Criterion) ([]string, [][]string, error) {
	ps1, ok1 := res1.PairByName(h, c)
	ps2, ok2 := res2.PairByName(h, c)
	if !ok1 || !ok2 {
		return nil, nil, fmt.Errorf("report: pair %v/%v missing from a study", h, c)
	}
	pt1 := ps1.Points[ps1.BestPoint()]
	pt2 := ps2.Points[ps2.BestPoint()]
	headers := []string{"priority", name1 + " satisfied", name2 + " satisfied"}
	classes := len(pt1.SatisfiedByPriority)
	if len(pt2.SatisfiedByPriority) > classes {
		classes = len(pt2.SatisfiedByPriority)
	}
	var rows [][]string
	for p := classes - 1; p >= 0; p-- {
		rows = append(rows, []string{
			priorityName(p),
			fmt.Sprintf("%.1f", at(pt1.SatisfiedByPriority, p)),
			fmt.Sprintf("%.1f", at(pt2.SatisfiedByPriority, p)),
		})
	}
	return headers, rows, nil
}

// PriorityFirstRows renders the §5.4 baseline comparison: the priority-first
// scheduler against every pair at its best sweep point.
func PriorityFirstRows(res *experiment.Result) ([]string, [][]string) {
	headers := []string{"scheduler", "mean value", "vs priority_first"}
	rows := [][]string{{
		"priority_first", fmt.Sprintf("%.1f", res.PriorityFirst.Mean), "—",
	}}
	for i := range res.Pairs {
		ps := &res.Pairs[i]
		pt := ps.Points[ps.BestPoint()]
		delta := pt.Value.Mean - res.PriorityFirst.Mean
		rows = append(rows, []string{
			ps.Pair.String(),
			fmt.Sprintf("%.1f", pt.Value.Mean),
			fmt.Sprintf("%+.1f", delta),
		})
	}
	return headers, rows
}

// ArrivalRows renders the online-arrival sweep.
func ArrivalRows(points []experiment.ArrivalPoint) ([]string, [][]string) {
	headers := []string{"dynamic fraction", "offline value", "online value", "retained", "replans"}
	var rows [][]string
	for _, pt := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", pt.DynamicFraction),
			fmt.Sprintf("%.1f", pt.OfflineValue.Mean),
			fmt.Sprintf("%.1f", pt.OnlineValue.Mean),
			fmt.Sprintf("%.3f", pt.RetainedFraction),
			fmt.Sprintf("%.1f", pt.MeanReplans),
		})
	}
	return headers, rows
}

// CongestionRows renders the congestion sweep.
func CongestionRows(cr *experiment.CongestionResult) ([]string, [][]string) {
	headers := []string{"req/machine", "value", "possible_satisfy", "upper", "satisfied fraction"}
	var rows [][]string
	for _, pt := range cr.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", pt.RequestsPerMachine),
			fmt.Sprintf("%.1f", pt.Value.Mean),
			fmt.Sprintf("%.1f", pt.PossibleSatisfy.Mean),
			fmt.Sprintf("%.1f", pt.Upper.Mean),
			fmt.Sprintf("%.3f", pt.SatisfiedFraction),
		})
	}
	return headers, rows
}

// GammaRows renders the garbage-collection ablation.
func GammaRows(points []experiment.GammaPoint) ([]string, [][]string) {
	headers := []string{"gamma", "value", "min", "max", "mean satisfied"}
	var rows [][]string
	for _, pt := range points {
		rows = append(rows, []string{
			pt.Gamma.String(),
			fmt.Sprintf("%.1f", pt.Value.Mean),
			fmt.Sprintf("%.1f", pt.Value.Min),
			fmt.Sprintf("%.1f", pt.Value.Max),
			fmt.Sprintf("%.1f", pt.MeanSatisfied),
		})
	}
	return headers, rows
}

// FailureRows renders the link-failure resilience sweep.
func FailureRows(points []experiment.FailurePoint) ([]string, [][]string) {
	headers := []string{"failed links", "static value", "dynamic value", "retained", "aborted", "replans"}
	var rows [][]string
	for _, pt := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", pt.FailedLinks),
			fmt.Sprintf("%.1f", pt.StaticValue.Mean),
			fmt.Sprintf("%.1f", pt.DynamicValue.Mean),
			fmt.Sprintf("%.3f", pt.RetainedFraction),
			fmt.Sprintf("%.1f", pt.MeanAborted),
			fmt.Sprintf("%.1f", pt.MeanReplans),
		})
	}
	return headers, rows
}

func priorityName(p int) string {
	switch p {
	case 0:
		return "low"
	case 1:
		return "medium"
	case 2:
		return "high"
	default:
		return fmt.Sprintf("p%d", p)
	}
}

func at(vals []float64, i int) float64 {
	if i < len(vals) {
		return vals[i]
	}
	return 0
}

// SaturationRows renders a single-network saturation sweep: one row per
// load point plus a trailing knee line. The latency columns are wall-clock
// unless the analyzer ran with an injected deterministic clock.
func SaturationRows(res *workload.SaturationResult) ([]string, [][]string) {
	headers := []string{"load", "arrivals", "requests", "admitted", "adm rate",
		"value", "upper", "efficiency", "p50 decide", "p99 decide", "epochs"}
	var rows [][]string
	for i, pt := range res.Points {
		load := fmt.Sprintf("%.2g", pt.Load)
		if i == res.KneeIndex {
			load += " *knee*"
		}
		rows = append(rows, []string{
			load,
			fmt.Sprintf("%d", pt.Arrivals),
			fmt.Sprintf("%d", pt.Requests),
			fmt.Sprintf("%d", pt.Admitted),
			fmt.Sprintf("%.3f", pt.AdmissionRate),
			fmt.Sprintf("%.1f", pt.WeightedValue),
			fmt.Sprintf("%.1f", pt.UpperBound),
			fmt.Sprintf("%.3f", pt.Efficiency),
			pt.P50.Round(time.Microsecond).String(),
			pt.P99.Round(time.Microsecond).String(),
			fmt.Sprintf("%d", pt.Epochs),
		})
	}
	return headers, rows
}

// AuditClassRows renders per-priority-class audit summaries (the stageload
// -class-summary table): how each class fared across admission and
// rejection, with decision-latency quantiles.
func AuditClassRows(sums []lifecycle.ClassSummary) ([]string, [][]string) {
	headers := []string{"class", "requests", "admitted", "rejected",
		"adm rate", "p50 decide", "p99 decide"}
	var rows [][]string
	for _, cs := range sums {
		rows = append(rows, []string{
			priorityName(cs.Class),
			fmt.Sprintf("%d", cs.Requests),
			fmt.Sprintf("%d", cs.Admitted),
			fmt.Sprintf("%d", cs.Rejected),
			fmt.Sprintf("%.3f", cs.AdmissionRate),
			cs.P50.Round(time.Microsecond).String(),
			cs.P99.Round(time.Microsecond).String(),
		})
	}
	return headers, rows
}

// SaturationAggregateRows renders the cross-case saturation aggregate.
func SaturationAggregateRows(agg *experiment.SaturationAggregate) ([]string, [][]string) {
	headers := []string{"load", "mean offered", "adm rate", "min", "max",
		"efficiency", "mean p99 decide"}
	var rows [][]string
	for i, pt := range agg.Points {
		load := fmt.Sprintf("%.2g", pt.Load)
		if i == agg.KneeIndex {
			load += " *knee*"
		}
		rows = append(rows, []string{
			load,
			fmt.Sprintf("%.1f", pt.MeanOffered),
			fmt.Sprintf("%.3f", pt.AdmissionRate.Mean),
			fmt.Sprintf("%.3f", pt.AdmissionRate.Min),
			fmt.Sprintf("%.3f", pt.AdmissionRate.Max),
			fmt.Sprintf("%.3f", pt.Efficiency.Mean),
			pt.MeanP99.Round(time.Microsecond).String(),
		})
	}
	return headers, rows
}
