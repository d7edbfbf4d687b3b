package experiments

import (
	"context"

	"github.com/phoenix-sched/phoenix/internal/metrics"
	"github.com/phoenix-sched/phoenix/internal/simulation"
	"github.com/phoenix-sched/phoenix/internal/trace"
)

// Fairness is an extension experiment checking the paper's concluding
// claim that "the CRV based reordering does not affect the long job
// response times along with ensuring the fairness of the other
// unconstrained tasks": per-job slowdowns (response / critical path) for
// unconstrained short jobs and for long jobs, summarized by Jain's
// fairness index and percentiles, Phoenix vs Eagle-C.
func Fairness(opts Options) (*Report, error) {
	e, err := newEnv(opts, "google")
	if err != nil {
		return nil, err
	}
	cl, err := e.clusterAt(1.0)
	if err != nil {
		return nil, err
	}

	classes := []struct {
		label  string
		filter metrics.Filter
	}{
		{"unconstrained_short", metrics.AndFilter(metrics.Short, metrics.Unconstrained)},
		{"constrained_short", metrics.AndFilter(metrics.Short, metrics.Constrained)},
		{"long", metrics.Long},
	}
	scheds := []string{SchedPhoenix, SchedEagle}

	// One work unit per (scheduler, repetition), each owning its per-class
	// slowdown vectors; pools are reassembled in unit order.
	type key struct{ si, ci int }
	n := len(scheds) * opts.Seeds
	units := make([][][]float64, n)
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
		ideal := criticalPaths(tr)
		perClass := make([][]float64, len(classes))
		for ci, c := range classes {
			perClass[ci] = res.Collector.Slowdowns(c.filter, func(jobID int) simulation.Time { return ideal[jobID] })
		}
		units[i] = perClass
		return nil
	})
	if err != nil {
		return nil, err
	}
	slow := make(map[key][]float64)
	for i, perClass := range units {
		si := i % len(scheds)
		for ci, v := range perClass {
			slow[key{si, ci}] = append(slow[key{si, ci}], v...)
		}
	}

	rep := &Report{
		ID:      "ext-fairness",
		Title:   "Fairness: per-job slowdowns and Jain's index, Phoenix vs Eagle-C (Google)",
		Columns: []string{"class", "scheduler", "jain_index", "slowdown_p50", "slowdown_p99"},
		Notes: []string{
			"extension backing the conclusion's claim that CRV reordering preserves fairness",
			"slowdown = response time / job critical path; Jain's index is 1.0 under perfect equality",
		},
	}
	for ci, c := range classes {
		for si, name := range scheds {
			v := slow[key{si, ci}]
			p := metrics.Percentiles(v, 50, 99)
			rep.Rows = append(rep.Rows, []string{
				c.label, name, f(metrics.JainIndex(v)), f2(p[0]), f2(p[1]),
			})
		}
	}
	return rep, nil
}

// criticalPaths computes each job's ideal response time: its longest task.
func criticalPaths(tr *trace.Trace) []simulation.Time {
	out := make([]simulation.Time, len(tr.Jobs))
	for i := range tr.Jobs {
		var maxDur simulation.Time
		for k := range tr.Jobs[i].Tasks {
			if d := tr.Jobs[i].Tasks[k].Duration; d > maxDur {
				maxDur = d
			}
		}
		out[i] = maxDur
	}
	return out
}
