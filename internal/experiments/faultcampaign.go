package experiments

import (
	"context"
	"fmt"

	"github.com/phoenix-sched/phoenix/internal/constraint"
	"github.com/phoenix-sched/phoenix/internal/faults"
	"github.com/phoenix-sched/phoenix/internal/metrics"
	"github.com/phoenix-sched/phoenix/internal/simulation"
)

// FaultCampaign is an extension experiment: every scheduler's short-job
// tail with and without a correlated rack outage that takes out one whole
// platform family for a quarter of the run. Unlike ext-failures (which
// models uncorrelated per-node churn), a scoped outage erases the entire
// live supply of one constraint dimension at once — the failure mode the
// paper's constraint-aware placement is meant to survive (§III-A).
func FaultCampaign(opts Options) (*Report, error) {
	e, err := newEnv(opts, "google")
	if err != nil {
		return nil, err
	}
	cl, err := e.clusterAt(1.0)
	if err != nil {
		return nil, err
	}
	// Scope: the platform family of machine 0; the profile guarantees the
	// family is populated, and the prefix cluster always contains machine 0.
	dim := constraint.DimPlatform.String()
	val := cl.Machine(0).Attrs.Get(constraint.DimPlatform)

	scheds := []string{SchedPhoenix, SchedEagle, SchedHawk, SchedSparrow, SchedYacc, SchedCentralized}
	scenarios := []string{"none", "rack-outage"}

	// One work unit per (scenario, scheduler, repetition). All units share
	// the prefix cluster — and therefore its MatchCache — across concurrent
	// seeds; per-cell pools are reassembled in unit order after the drain.
	type key struct{ ci, si int }
	type unit struct {
		samples []float64
		wasted  simulation.Time
	}
	n := len(scenarios) * len(scheds) * opts.Seeds
	units := make([]unit, n)
	err = opts.runUnits(n, func(ctx context.Context, i int) error {
		ci := i % len(scenarios)
		si := (i / len(scenarios)) % len(scheds)
		rep := i / (len(scenarios) * len(scheds))

		tr, err := e.trace(rep)
		if err != nil {
			return err
		}
		spec := opts.unit(cl, tr, scheds[si], rep)
		if ci == 1 {
			// Outage spans [25%, 50%] of the arrival horizon of this
			// repetition's trace, so every seed sees the same relative window.
			horizon := tr.Jobs[len(tr.Jobs)-1].Arrival.Seconds()
			spec.Faults = faults.RackOutage(dim, val, 0.25*horizon, 0.25*horizon)
		}
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
		k := key{i % len(scenarios), (i / len(scenarios)) % len(scheds)}
		samples[k] = append(samples[k], u.samples...)
		wasted[k] += u.wasted
	}

	rep := &Report{
		ID:      "ext-faultcampaign",
		Title:   "Correlated rack outage: short-job p50/p99 with one platform family down for 25% of the run",
		Columns: []string{"scenario", "scheduler", "short_p50_s", "short_p99_s", "wasted_work_s"},
		Notes: []string{
			"extension: scoped outage via internal/faults; compare against ext-failures' uncorrelated churn",
		},
	}
	for ci, scen := range scenarios {
		for si, name := range scheds {
			k := key{ci, si}
			p := metrics.Percentiles(samples[k], 50, 99)
			rep.Rows = append(rep.Rows, []string{
				scen, name, f2(p[0]), f2(p[1]),
				fmt.Sprintf("%.0f", wasted[k].Seconds()/float64(opts.Seeds)),
			})
		}
	}
	return rep, nil
}
