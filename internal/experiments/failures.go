package experiments

import (
	"context"
	"fmt"

	"github.com/phoenix-sched/phoenix/internal/metrics"
	"github.com/phoenix-sched/phoenix/internal/simulation"
)

// FailureImpact is an extension experiment: how each scheduler's short-job
// tail degrades under worker churn (fail-stop failures with 60 s repairs).
// Fault tolerance is the paper's stated motivation for spread placement
// constraints and a core reason production schedulers distribute their
// control planes; this quantifies the scheduling-side cost of churn.
func FailureImpact(opts Options) (*Report, error) {
	e, err := newEnv(opts, "google")
	if err != nil {
		return nil, err
	}
	cl, err := e.clusterAt(1.0)
	if err != nil {
		return nil, err
	}

	rates := []float64{0, 2, 10}
	scheds := []string{SchedPhoenix, SchedEagle, SchedHawk}

	// One work unit per (rate, scheduler, repetition); per-cell pools are
	// reassembled in unit order after the drain.
	type key struct{ ri, si int }
	type unit struct {
		samples []float64
		wasted  simulation.Time
	}
	n := len(rates) * len(scheds) * opts.Seeds
	units := make([]unit, n)
	err = opts.runUnits(n, func(ctx context.Context, i int) error {
		ri := i % len(rates)
		si := (i / len(rates)) % len(scheds)
		rep := i / (len(rates) * len(scheds))

		tr, err := e.trace(rep)
		if err != nil {
			return err
		}
		spec := opts.unit(cl, tr, scheds[si], rep)
		spec.Config.FailureRatePerHour = rates[ri]
		res, err := runSpec(ctx, spec)
		if err != nil {
			return err
		}
		units[i] = unit{samples: res.Collector.ResponseTimes(metrics.Short), wasted: res.Collector.WastedWork}
		return nil
	})
	if err != nil {
		return nil, err
	}
	samples := make(map[key][]float64)
	wasted := make(map[key]simulation.Time)
	for i, u := range units {
		k := key{i % len(rates), (i / len(rates)) % len(scheds)}
		samples[k] = append(samples[k], u.samples...)
		wasted[k] += u.wasted
	}

	rep := &Report{
		ID:      "ext-failures",
		Title:   "Worker churn: short-job p90/p99 under fail-stop failures (60 s repair)",
		Columns: []string{"failures_per_node_hour", "scheduler", "short_p90_s", "short_p99_s", "wasted_work_s"},
		Notes: []string{
			"extension: fault tolerance motivates the paper's spread placement constraints (§III-A)",
		},
	}
	for ri, rate := range rates {
		for si, name := range scheds {
			k := key{ri, si}
			p := metrics.Percentiles(samples[k], 90, 99)
			rep.Rows = append(rep.Rows, []string{
				fmt.Sprintf("%.0f", rate), name, f2(p[0]), f2(p[1]),
				fmt.Sprintf("%.0f", wasted[k].Seconds()/float64(opts.Seeds)),
			})
		}
	}
	return rep, nil
}
