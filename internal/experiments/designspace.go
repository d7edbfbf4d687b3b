package experiments

import (
	"context"

	"github.com/phoenix-sched/phoenix/internal/metrics"
)

// DesignSpace is an extension experiment backing the paper's Table I /
// Fig. 1 discussion: all six scheduler designs — fully centralized
// (Borg/Mesos corner), fully distributed (Sparrow-C), early-binding
// distributed (Yacc-D), and the three hybrids (Hawk-C, Eagle-C, Phoenix) —
// race on the same high-load Google workload, one row per scheduler.
func DesignSpace(opts Options) (*Report, error) {
	e, err := newEnv(opts, "google")
	if err != nil {
		return nil, err
	}
	cl, err := e.clusterAt(1.0)
	if err != nil {
		return nil, err
	}

	scheds := []string{
		SchedCentralized, SchedSparrow, SchedYacc, SchedHawk, SchedEagle, SchedPhoenix,
	}
	// One work unit per (scheduler, repetition); per-scheduler pools are
	// reassembled in unit order after the drain.
	type cell struct {
		short, long []float64
	}
	n := len(scheds) * opts.Seeds
	units := make([]cell, n)
	err = opts.runUnits(n, func(ctx context.Context, i int) error {
		si, rep := i%len(scheds), i/len(scheds)
		tr, err := e.trace(rep)
		if err != nil {
			return err
		}
		res, err := runSpec(ctx, opts.unit(cl, tr, scheds[si], rep))
		if err != nil {
			return err
		}
		units[i] = cell{
			short: res.Collector.ResponseTimes(metrics.Short),
			long:  res.Collector.ResponseTimes(metrics.Long),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cells := make([]cell, len(scheds))
	for i, u := range units {
		si := i % len(scheds)
		cells[si].short = append(cells[si].short, u.short...)
		cells[si].long = append(cells[si].long, u.long...)
	}

	rep := &Report{
		ID:      "ext-designspace",
		Title:   "Design space (Table I / Fig. 1): all schedulers on the Google workload at high load",
		Columns: []string{"scheduler", "short_p50_s", "short_p90_s", "short_p99_s", "long_p99_s"},
		Notes: []string{
			"extension (not a paper figure): quantifies the Table I design axes on one workload",
			"expected: centralized strong on placement but delayed by its control plane; hybrids dominate short tails",
		},
	}
	for si, name := range scheds {
		sp := metrics.Percentiles(cells[si].short, 50, 90, 99)
		lp := metrics.Percentiles(cells[si].long, 99)
		rep.Rows = append(rep.Rows, []string{
			name, f2(sp[0]), f2(sp[1]), f2(sp[2]), f2(lp[0]),
		})
	}
	return rep, nil
}
