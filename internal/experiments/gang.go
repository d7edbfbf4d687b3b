package experiments

import (
	"context"
	"strconv"

	"github.com/phoenix-sched/phoenix/internal/metrics"
)

// gangVariants is the policy-composition sweep of ext-gang: bare Phoenix
// (its CRV reordering sees gang jobs as ordinary long jobs), gang
// co-placement alone, gang plus backfill (reclaiming the reservation idle
// windows), and the full stack with priority preemption. Compositions are
// policy names applied innermost-first around Phoenix (Spec.Policies).
var gangVariants = [][]string{
	nil,
	{"gang"},
	{"gang", "backfill"},
	{"gang", "preempt", "backfill"},
}

// Workload mix of ext-gang: a fifth of the long multi-task jobs require
// all-or-nothing co-placement, and 15% of long jobs run at the elevated
// priority tier the preempt policy acts on.
const (
	gangFraction     = 0.2
	priorityFraction = 0.15
)

// GangPolicies is the ext-gang experiment: the Google workload regenerated
// with gang widths and priority tiers, run through Phoenix bare and under
// the three policy plug-in compositions. It charts what the composable
// layer buys and costs — gang-job and short-job percentiles side by side,
// with the commit/abandon/preempt/backfill counters that explain them.
func GangPolicies(opts Options) (*Report, error) {
	e, err := newEnv(opts, "google")
	if err != nil {
		return nil, err
	}
	e.cfg.GangFraction = gangFraction
	e.cfg.PriorityFraction = priorityFraction
	cl, err := e.clusterAt(1.0)
	if err != nil {
		return nil, err
	}

	type unit struct {
		gangResp  []float64
		shortResp []float64
		gangs     int64
		abandons  int64
		preempts  int64
		backfills int64
		util      float64
	}
	units := make([]unit, len(gangVariants)*opts.Seeds)
	err = opts.runUnits(len(units), func(ctx context.Context, i int) error {
		names := gangVariants[i/opts.Seeds]
		rep := i % opts.Seeds
		tr, err := e.trace(rep)
		if err != nil {
			return err
		}
		spec := opts.unit(cl, tr, SchedPhoenix, rep)
		spec.Policies = names
		res, err := runSpec(ctx, spec)
		if err != nil {
			return err
		}
		c := res.Collector
		units[i] = unit{
			gangResp:  c.ResponseTimes(metrics.Gang),
			shortResp: c.ResponseTimes(metrics.Short),
			gangs:     c.GangsScheduled,
			abandons:  c.GangAbandons,
			preempts:  c.Preemptions,
			backfills: c.Backfills,
			util:      res.Utilization,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		ID:    "ext-gang",
		Title: "Composable policy plug-ins: gang co-placement, preemption, and backfill around Phoenix (Google workload)",
		Columns: []string{
			"scheduler", "gangs", "abandons", "preempts", "backfills",
			"gang_p50_s", "gang_p99_s", "short_p99_s", "util",
		},
		Notes: []string{
			"workload: google profile with 20% of long multi-task jobs as gangs, 15% of long jobs high-priority",
			"gangs/abandons/preempts/backfills are summed over seeds; percentiles pool all seeds' jobs",
			"bare phoenix treats gang jobs as ordinary long jobs: gang_p* then measures plain co-arrival latency",
		},
	}
	for vi, names := range gangVariants {
		name := "phoenix"
		for _, n := range names {
			name = n + "(" + name + ")"
		}
		var gangResp, shortResp, utils []float64
		var gangs, abandons, preempts, backfills int64
		for r := 0; r < opts.Seeds; r++ {
			u := &units[vi*opts.Seeds+r]
			gangResp = append(gangResp, u.gangResp...)
			shortResp = append(shortResp, u.shortResp...)
			utils = append(utils, u.util)
			gangs += u.gangs
			abandons += u.abandons
			preempts += u.preempts
			backfills += u.backfills
		}
		gp := metrics.Percentiles(gangResp, 50, 99)
		sp := metrics.Percentiles(shortResp, 99)
		rep.Rows = append(rep.Rows, []string{
			name,
			strconv.FormatInt(gangs, 10),
			strconv.FormatInt(abandons, 10),
			strconv.FormatInt(preempts, 10),
			strconv.FormatInt(backfills, 10),
			f2(gp[0]), f2(gp[1]),
			f2(sp[0]),
			f(meanOf(utils)),
		})
	}
	return rep, nil
}
