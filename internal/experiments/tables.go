package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"

	"github.com/phoenix-sched/phoenix/internal/constraint"
	"github.com/phoenix-sched/phoenix/internal/metrics"
	"github.com/phoenix-sched/phoenix/internal/trace"
)

// TableII reproduces Table II: for every constraint type, the relative
// slowdown of short jobs demanding it (mean response time vs unconstrained
// short jobs), its share among constrained tasks, and its occurrence count
// — measured on the Google workload under Eagle-C, as the paper's
// motivation section does.
func TableII(opts Options) (*Report, error) {
	e, err := newEnv(opts, "google")
	if err != nil {
		return nil, err
	}
	cl, err := e.clusterAt(1.0)
	if err != nil {
		return nil, err
	}

	// One work unit per repetition, each owning its per-dimension slowdown
	// vector (NaN when the unconstrained baseline is empty — meanOf skips
	// NaNs) and occurrence counts; totals are reassembled in rep order.
	type unit struct {
		slowdown [constraint.NumDims]float64
		occ      [constraint.NumDims]int
		conTasks int
	}
	units := make([]unit, opts.Seeds)
	err = opts.runUnits(opts.Seeds, func(ctx context.Context, rep int) error {
		tr, err := e.trace(rep)
		if err != nil {
			return err
		}
		res, err := runSpec(ctx, opts.unit(cl, tr, SchedEagle, rep))
		if err != nil {
			return err
		}
		sum := trace.Summarize(tr)
		// Slowdown at the 90th percentile: the mean over a Pareto-tailed
		// response distribution is decided by a handful of stragglers,
		// while the paper's ~2x slowdowns describe typical constrained
		// jobs.
		base := metrics.Percentile(res.Collector.ResponseTimes(metrics.AndFilter(metrics.Short, metrics.Unconstrained)), 90)
		u := unit{conTasks: sum.ConstrainedTasks}
		for _, d := range constraint.Dims {
			u.occ[d.Index()] = sum.DimOccurrences[d.Index()]
			p90 := metrics.Percentile(res.Collector.ResponseTimes(
				metrics.AndFilter(metrics.Short, metrics.ConstrainedOn(d))), 90)
			u.slowdown[d.Index()] = math.NaN()
			if base > 0 {
				u.slowdown[d.Index()] = p90 / base
			}
		}
		units[rep] = u
		return nil
	})
	if err != nil {
		return nil, err
	}
	var (
		slowdowns [constraint.NumDims][]float64
		occ       [constraint.NumDims]int
		conTasks  int
	)
	for _, u := range units {
		conTasks += u.conTasks
		for _, d := range constraint.Dims {
			occ[d.Index()] += u.occ[d.Index()]
			slowdowns[d.Index()] = append(slowdowns[d.Index()], u.slowdown[d.Index()])
		}
	}

	type row struct {
		dim      constraint.Dim
		slowdown float64
		share    float64
		occ      int
	}
	rows := make([]row, 0, constraint.NumDims)
	for _, d := range constraint.Dims {
		share := 0.0
		if conTasks > 0 {
			share = 100 * float64(occ[d.Index()]) / float64(conTasks)
		}
		rows = append(rows, row{
			dim:      d,
			slowdown: meanOf(slowdowns[d.Index()]),
			share:    share,
			occ:      occ[d.Index()],
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].share > rows[j].share })

	rep := &Report{
		ID:      "table2",
		Title:   "Constraint distribution and relative slowdowns (Google workload, Eagle-C)",
		Columns: []string{"constraint", "rel_slowdown", "share_pct", "occurrence"},
		Notes: []string{
			"paper Table II: ISA dominates (80.64% share, 2.03x slowdown); most types slow jobs ~1.8-2x",
		},
	}
	for _, r := range rows {
		rep.Rows = append(rep.Rows, []string{
			r.dim.String(), f2(r.slowdown), f2(r.share), fmt.Sprintf("%d", r.occ),
		})
	}
	return rep, nil
}

// TableIII reproduces Table III: Phoenix's CRV reordering statistics per
// workload — node count, constrained/unconstrained task counts, CRV
// reordered tasks, and the short-job share.
func TableIII(opts Options) (*Report, error) {
	profiles := []string{"yahoo", "cloudera", "google"}
	type rowData struct {
		nodes               int
		constrained, uncons int
		reordered           int64
		shortPct            float64
	}
	// One work unit per profile; rows[i] is each unit's own slot.
	rows := make([]rowData, len(profiles))
	err := opts.runUnits(len(profiles), func(ctx context.Context, i int) error {
		e, err := newEnv(opts, profiles[i])
		if err != nil {
			return err
		}
		cl, err := e.clusterAt(1.0)
		if err != nil {
			return err
		}
		tr, err := e.trace(0)
		if err != nil {
			return err
		}
		res, err := runSpec(ctx, opts.unit(cl, tr, SchedPhoenix, 0))
		if err != nil {
			return err
		}
		sum := trace.Summarize(tr)
		rows[i] = rowData{
			nodes:       cl.Size(),
			constrained: sum.ConstrainedTasks,
			uncons:      sum.UnconstrainedTasks,
			reordered:   res.Collector.CRVReorderedTasks,
			shortPct:    100 * sum.ShortJobFraction,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		ID:      "table3",
		Title:   "CRV reordering statistics (Phoenix)",
		Columns: []string{"workload", "nodes", "constrained_tasks", "unconstrained_tasks", "reordered_tasks", "short_jobs_pct"},
		Notes: []string{
			"paper Table III (at full scale): Yahoo 5000 nodes / 91.56% short, Cloudera 15000 / 95%, Google 15000 / 90.2%",
		},
	}
	for i, p := range profiles {
		r := rows[i]
		rep.Rows = append(rep.Rows, []string{
			p, fmt.Sprintf("%d", r.nodes),
			fmt.Sprintf("%d", r.constrained), fmt.Sprintf("%d", r.uncons),
			fmt.Sprintf("%d", r.reordered), f2(r.shortPct),
		})
	}
	return rep, nil
}
