package experiments

import (
	"context"
	"strconv"

	"github.com/phoenix-sched/phoenix/internal/metrics"
	"github.com/phoenix-sched/phoenix/internal/trace"
)

// PlacementImpact is an extension experiment backing the paper's §III-A
// claim that affinity (placement) constraints "have a significant impact
// on task scheduling delay by a factor of 2 to 4 times": it runs Phoenix
// on the Google workload and compares response percentiles of
// spread-placed long jobs, pack-placed short jobs, and their
// placement-free peers.
func PlacementImpact(opts Options) (*Report, error) {
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
		{"long_free", metrics.AndFilter(metrics.Long, metrics.Placed(trace.PlacementNone))},
		{"long_spread", metrics.AndFilter(metrics.Long, metrics.Placed(trace.PlacementSpread))},
		{"short_free", metrics.AndFilter(metrics.Short, metrics.Placed(trace.PlacementNone))},
		{"short_pack", metrics.AndFilter(metrics.Short, metrics.Placed(trace.PlacementPack))},
	}

	// One work unit per repetition; per-class pools are reassembled in rep
	// order after the drain.
	type unit struct {
		perClass [][]float64
		relaxed  int64
	}
	units := make([]unit, opts.Seeds)
	err = opts.runUnits(opts.Seeds, func(ctx context.Context, rep int) error {
		tr, err := e.trace(rep)
		if err != nil {
			return err
		}
		res, err := runSpec(ctx, opts.unit(cl, tr, SchedPhoenix, rep))
		if err != nil {
			return err
		}
		u := unit{perClass: make([][]float64, len(classes)), relaxed: res.Collector.PlacementRelaxed}
		for ci, c := range classes {
			u.perClass[ci] = res.Collector.ResponseTimes(c.filter)
		}
		units[rep] = u
		return nil
	})
	if err != nil {
		return nil, err
	}
	samples := make([][]float64, len(classes))
	var relaxed int64
	for _, u := range units {
		for ci, v := range u.perClass {
			samples[ci] = append(samples[ci], v...)
		}
		relaxed += u.relaxed
	}

	rep := &Report{
		ID:      "ext-placement",
		Title:   "Rack placement (affinity) constraints: response-time impact under Phoenix",
		Columns: []string{"class", "jobs", "p50_s", "p90_s", "p99_s"},
		Notes: []string{
			"extension backing §III-A: affinity constraints delay scheduling ~2-4x",
			"spread = long jobs on distinct racks (fault tolerance); pack = short jobs on one rack (locality)",
		},
	}
	for ci, c := range classes {
		p := metrics.Percentiles(samples[ci], 50, 90, 99)
		rep.Rows = append(rep.Rows, []string{
			c.label, strconv.Itoa(len(samples[ci])), f2(p[0]), f2(p[1]), f2(p[2]),
		})
	}
	rep.Notes = append(rep.Notes, "spread placements that had to reuse a rack: "+strconv.FormatInt(relaxed, 10))
	return rep, nil
}
