package experiments

import (
	"context"
	"fmt"

	"github.com/phoenix-sched/phoenix/internal/metrics"
	"github.com/phoenix-sched/phoenix/internal/sched"
	"github.com/phoenix-sched/phoenix/internal/simulation"
	"github.com/phoenix-sched/phoenix/internal/trace"
)

// profileLetter maps the paper's sub-figure letters to trace profiles:
// (a) Yahoo, (b) Cloudera, (c) Google.
var profileLetter = map[string]string{
	"a": "yahoo",
	"b": "cloudera",
	"c": "google",
}

// Fig2 reproduces Fig. 2 (a: Yahoo, b: Cloudera): the CDF of job queuing
// times under Hawk-C, Eagle-C and Yacc-D on the constrained trace, against
// the unconstrained baseline (the same workload with constraints stripped,
// scheduled by Eagle).
func Fig2(opts Options, profile string) (*Report, error) {
	e, err := newEnv(opts, profile)
	if err != nil {
		return nil, err
	}
	cl, err := e.clusterAt(1.0)
	if err != nil {
		return nil, err
	}

	series := []struct {
		label       string
		sched       string
		constrained bool
	}{
		{"hawk-c", SchedHawk, true},
		{"eagle-c", SchedEagle, true},
		{"yacc-d", SchedYacc, true},
		{"baseline", SchedEagle, false},
	}

	// One work unit per (series, repetition); unit i owns unitDelays[i] and
	// the per-series pools are reassembled in unit order after the pool
	// drains, so the rendered CDF is identical at any worker count.
	n := len(series) * opts.Seeds
	unitDelays := make([][]float64, n)
	err = opts.runUnits(n, func(ctx context.Context, i int) error {
		si, rep := i%len(series), i/len(series)
		tr, err := e.trace(rep)
		if err != nil {
			return err
		}
		if !series[si].constrained {
			tr = tr.StripConstraints()
		}
		res, err := runSpec(ctx, opts.unit(cl, tr, series[si].sched, rep))
		if err != nil {
			return err
		}
		unitDelays[i] = res.Collector.QueueDelays(metrics.All)
		return nil
	})
	if err != nil {
		return nil, err
	}
	delays := make([][]float64, len(series))
	for i, d := range unitDelays {
		si := i % len(series)
		delays[si] = append(delays[si], d...)
	}

	rep := &Report{
		ID:      "fig2" + letterOf(profile),
		Title:   fmt.Sprintf("CDF of job queuing times, %s trace with constraints", profile),
		Columns: []string{"cdf", "hawk-c_s", "eagle-c_s", "yacc-d_s", "baseline_s"},
		Notes: []string{
			"expected shape: hawk-c worst; eagle-c and yacc-d ~2-2.5x the unconstrained baseline",
		},
	}
	for q := 5; q <= 100; q += 5 {
		row := []string{f2(float64(q) / 100)}
		for si := range series {
			row = append(row, f2(metrics.Percentile(delays[si], float64(q))))
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// Fig3 reproduces Fig. 3: the Google trace on Eagle-C, mean queuing delay
// of constrained vs unconstrained jobs over time.
func Fig3(opts Options) (*Report, error) {
	e, err := newEnv(opts, "google")
	if err != nil {
		return nil, err
	}
	cl, err := e.clusterAt(1.0)
	if err != nil {
		return nil, err
	}
	var res *sched.Result
	err = opts.runUnits(1, func(ctx context.Context, _ int) error {
		tr, err := e.trace(0)
		if err != nil {
			return err
		}
		res, err = runSpec(ctx, opts.unit(cl, tr, SchedEagle, 0))
		return err
	})
	if err != nil {
		return nil, err
	}

	bucket := 20 * simulation.Second
	consSeries := res.Collector.QueueDelaySeries(metrics.Constrained, bucket)
	unconSeries := res.Collector.QueueDelaySeries(metrics.Unconstrained, bucket)

	rep := &Report{
		ID:      "fig3",
		Title:   "Google trace on Eagle-C: queuing delay of constrained vs unconstrained jobs over time",
		Columns: []string{"t_s", "constrained_s", "n_con", "unconstrained_s", "n_uncon"},
		Notes: []string{
			"expected shape: constrained delays spike during bursts and decay slowly; unconstrained stay low",
		},
	}
	for i := range consSeries {
		c := consSeries[i]
		var u metrics.SeriesPoint
		if i < len(unconSeries) {
			u = unconSeries[i]
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%.0f", c.Start.Seconds()),
			f2(c.Mean), fmt.Sprintf("%d", c.Count),
			f2(u.Mean), fmt.Sprintf("%d", u.Count),
		})
	}
	return rep, nil
}

// Fig4 reproduces Fig. 4 (a: Yahoo, b: Cloudera, c: Google): short-job
// response times of constrained jobs normalized to unconstrained jobs,
// within an Eagle-C run, at the 50th/90th/99th percentiles.
func Fig4(opts Options, profile string) (*Report, error) {
	e, err := newEnv(opts, profile)
	if err != nil {
		return nil, err
	}
	cl, err := e.clusterAt(1.0)
	if err != nil {
		return nil, err
	}

	// One work unit per repetition, pooled in rep order after the drain.
	type unit struct{ con, uncon []float64 }
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
		units[rep] = unit{
			con:   res.Collector.ResponseTimes(metrics.AndFilter(metrics.Short, metrics.Constrained)),
			uncon: res.Collector.ResponseTimes(metrics.AndFilter(metrics.Short, metrics.Unconstrained)),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var con, uncon []float64
	for _, u := range units {
		con = append(con, u.con...)
		uncon = append(uncon, u.uncon...)
	}

	cp := metrics.Percentiles(con, 50, 90, 99)
	up := metrics.Percentiles(uncon, 50, 90, 99)
	return &Report{
		ID:      "fig4" + letterOf(profile),
		Title:   fmt.Sprintf("Eagle-C on %s: constrained short-job response normalized to unconstrained", profile),
		Columns: []string{"percentile", "constrained/unconstrained"},
		Rows: [][]string{
			{"p50", f(cp[0] / up[0])},
			{"p90", f(cp[1] / up[1])},
			{"p99", f(cp[2] / up[2])},
		},
		Notes: []string{"paper: constraints inflate the 99th percentile by ~1.7x on average"},
	}, nil
}

// Fig6 reproduces Fig. 6: for k = 1..6 constraints, the percentage of jobs
// demanding k constraints vs the percentage of cluster nodes able to
// satisfy a k-constraint job.
func Fig6(opts Options) (*Report, error) {
	e, err := newEnv(opts, "google")
	if err != nil {
		return nil, err
	}
	cl, err := e.clusterAt(1.0)
	if err != nil {
		return nil, err
	}
	// No simulation here — the single work unit is the trace synthesis and
	// its supply/demand analysis; it still runs through the pool so unit
	// accounting is uniform across experiments.
	var sum trace.Summary
	var supply [trace.MaxConstraints]float64
	err = opts.runUnits(1, func(context.Context, int) error {
		tr, err := e.trace(0)
		if err != nil {
			return err
		}
		sum = trace.Summarize(tr)
		supply = trace.SupplyByCount(tr, cl)
		return nil
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		ID:      "fig6",
		Title:   "Constraint supply/demand distribution (Google trace)",
		Columns: []string{"constraints", "demand_pct", "supply_pct"},
		Notes: []string{
			"paper: 33% of jobs ask 2 constraints but only ~12% of nodes satisfy them; supply falls to ~5% at 6",
		},
	}
	for k := 0; k < len(sum.DemandByCount); k++ {
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", k+1),
			f2(100 * sum.DemandByCount[k]),
			f2(100 * supply[k]),
		})
	}
	return rep, nil
}

// Fig9 reproduces Fig. 9: 90th/99th percentile queuing delays of Phoenix vs
// Eagle-C for constrained and unconstrained short jobs on the Google trace
// at high load.
func Fig9(opts Options) (*Report, error) {
	e, err := newEnv(opts, "google")
	if err != nil {
		return nil, err
	}
	cl, err := e.clusterAt(1.0)
	if err != nil {
		return nil, err
	}

	// One work unit per (scheduler, repetition); queuing delays are pooled
	// per (scheduler, class) in unit order after the drain.
	scheds := []string{SchedPhoenix, SchedEagle}
	type unit struct{ con, uncon []float64 }
	n := len(scheds) * opts.Seeds
	units := make([]unit, n)
	err = opts.runUnits(n, func(ctx context.Context, i int) error {
		name, rep := scheds[i%2], i/2
		tr, err := e.trace(rep)
		if err != nil {
			return err
		}
		res, err := runSpec(ctx, opts.unit(cl, tr, name, rep))
		if err != nil {
			return err
		}
		units[i] = unit{
			con:   res.Collector.QueueDelays(metrics.AndFilter(metrics.Short, metrics.Constrained)),
			uncon: res.Collector.QueueDelays(metrics.AndFilter(metrics.Short, metrics.Unconstrained)),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	pooled := map[string][]float64{}
	for i, u := range units {
		name := scheds[i%2]
		pooled[name+"/con"] = append(pooled[name+"/con"], u.con...)
		pooled[name+"/uncon"] = append(pooled[name+"/uncon"], u.uncon...)
	}

	pct := func(name, class string, p float64) string {
		return f2(metrics.Percentile(pooled[name+"/"+class], p))
	}
	return &Report{
		ID:      "fig9",
		Title:   "Queuing delay of short jobs, Google trace: Phoenix vs Eagle-C",
		Columns: []string{"metric", "phoenix_s", "eagle-c_s"},
		Rows: [][]string{
			{"constrained_p90", pct(SchedPhoenix, "con", 90), pct(SchedEagle, "con", 90)},
			{"constrained_p99", pct(SchedPhoenix, "con", 99), pct(SchedEagle, "con", 99)},
			{"unconstrained_p90", pct(SchedPhoenix, "uncon", 90), pct(SchedEagle, "uncon", 90)},
			{"unconstrained_p99", pct(SchedPhoenix, "uncon", 99), pct(SchedEagle, "uncon", 99)},
		},
		Notes: []string{"paper: Phoenix improves the 99th percentile for both classes; Eagle-C's constrained jobs stall unconstrained ones sharing queues"},
	}, nil
}

// Fig7 reproduces Fig. 7 (a/b/c): short-job response times of Phoenix
// normalized to Eagle-C across the utilization sweep.
func Fig7(opts Options, profile string) (*Report, error) {
	points, err := sweepNormalized(opts, profile, SchedPhoenix, SchedEagle, metrics.Short)
	if err != nil {
		return nil, err
	}
	return sweepReport(
		"fig7"+letterOf(profile),
		fmt.Sprintf("Short-job response, Phoenix normalized to Eagle-C, %s trace", profile),
		SchedPhoenix, SchedEagle, points,
		"paper: ~0.52x at ~85% utilization (1.9x faster), converging to ~1.0 at low utilization",
	), nil
}

// Fig8 reproduces Fig. 8 (a/b/c): long-job response times of Phoenix
// normalized to Eagle-C (expected ~1.0: CRV reordering must not hurt long
// jobs).
func Fig8(opts Options, profile string) (*Report, error) {
	points, err := sweepNormalized(opts, profile, SchedPhoenix, SchedEagle, metrics.Long)
	if err != nil {
		return nil, err
	}
	return sweepReport(
		"fig8"+letterOf(profile),
		fmt.Sprintf("Long-job response, Phoenix normalized to Eagle-C, %s trace", profile),
		SchedPhoenix, SchedEagle, points,
		"paper: ratios stay ~1.0 — Phoenix does not affect long jobs",
	), nil
}

// Fig10 reproduces Fig. 10: Google short jobs, Phoenix normalized to
// Hawk-C across the utilization sweep.
func Fig10(opts Options) (*Report, error) {
	points, err := sweepNormalized(opts, "google", SchedPhoenix, SchedHawk, metrics.Short)
	if err != nil {
		return nil, err
	}
	return sweepReport(
		"fig10",
		"Short-job response, Phoenix normalized to Hawk-C, Google trace",
		SchedPhoenix, SchedHawk, points,
		"paper: p90 0.21x-0.80x and p99 0.18x-0.76x from high to low utilization (up to ~5x faster)",
	), nil
}

// Fig11 reproduces Fig. 11: Google short jobs, Phoenix normalized to
// Sparrow-C across the utilization sweep.
func Fig11(opts Options) (*Report, error) {
	points, err := sweepNormalized(opts, "google", SchedPhoenix, SchedSparrow, metrics.Short)
	if err != nil {
		return nil, err
	}
	return sweepReport(
		"fig11",
		"Short-job response, Phoenix normalized to Sparrow-C, Google trace",
		SchedPhoenix, SchedSparrow, points,
		"paper: ~0.48x at p50/86% utilization to ~0.95x at p99/46% utilization (~2x faster at high load)",
	), nil
}

func letterOf(profile string) string {
	for letter, p := range profileLetter {
		if p == profile {
			return letter
		}
	}
	return "?"
}
