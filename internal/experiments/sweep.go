package experiments

import (
	"context"
	"fmt"
	"math"

	"github.com/phoenix-sched/phoenix/internal/metrics"
)

// sweepPoint is one measured point of a utilization sweep.
type sweepPoint struct {
	nodes       int
	utilization float64
	ratio       metrics.P50P90P99 // subject / baseline response-time ratio
}

// sweepNormalized runs subject and baseline schedulers across the cluster
// size sweep, with Seeds repetitions per point, and reports the normalized
// response-time percentiles of the jobs selected by filter — the machinery
// behind Figs. 7, 8, 10 and 11.
//
// Each repetition pairs the two schedulers on the same generated trace and
// takes the ratio of their percentiles; the point reports the geometric
// mean of the ratios across repetitions. Tail percentiles of heavy-tailed
// workloads are decided by a handful of stragglers, so an arithmetic mean
// (or a pooled percentile) lets a single catastrophic repetition own the
// result; the geometric mean weighs containment and regression factors
// symmetrically.
func sweepNormalized(opts Options, profile, subject, baseline string, filter metrics.Filter) ([]sweepPoint, error) {
	e, err := newEnv(opts, profile)
	if err != nil {
		return nil, err
	}

	// Work-unit decomposition: one unit per (sweep point, repetition,
	// scheduler), enumerated subject-then-baseline inside the rep loop, so
	// unit index i maps back as below and every unit owns results[i].
	type spec struct {
		point, rep int
		name       string
	}
	var specs []spec
	for p := range opts.SweepMults {
		for r := 0; r < opts.Seeds; r++ {
			specs = append(specs, spec{p, r, subject}, spec{p, r, baseline})
		}
	}
	// unitIdx inverts the enumeration: k = 0 for subject, 1 for baseline.
	unitIdx := func(p, rep, k int) int { return (p*opts.Seeds+rep)*2 + k }

	type cell struct {
		pcts metrics.P50P90P99
		load float64
	}
	results := make([]cell, len(specs))
	err = opts.runUnits(len(specs), func(ctx context.Context, i int) error {
		sp := specs[i]
		cl, err := e.clusterAt(opts.SweepMults[sp.point])
		if err != nil {
			return err
		}
		tr, err := e.trace(sp.rep)
		if err != nil {
			return err
		}
		res, err := runSpec(ctx, opts.unit(cl, tr, sp.name, sp.rep))
		if err != nil {
			return fmt.Errorf("%s on %s x%.2f: %w", sp.name, profile, opts.SweepMults[sp.point], err)
		}
		// Utilization is the offered load over the arrival window, the
		// paper's x-axis quantity. (Result.Utilization measures over the
		// full span including the drain tail, which understates it on
		// short synthetic traces.)
		results[i] = cell{pcts: res.Collector.ResponsePercentiles(filter), load: tr.OfferedLoad(cl.Size())}
		return nil
	})
	if err != nil {
		return nil, err
	}

	points := make([]sweepPoint, len(opts.SweepMults))
	for p, mult := range opts.SweepMults {
		var r50, r90, r99, loads []float64
		for rep := 0; rep < opts.Seeds; rep++ {
			subj := results[unitIdx(p, rep, 0)]
			base := results[unitIdx(p, rep, 1)]
			ratio := subj.pcts.DivideBy(base.pcts)
			r50 = append(r50, ratio.P50)
			r90 = append(r90, ratio.P90)
			r99 = append(r99, ratio.P99)
			loads = append(loads, subj.load)
		}
		nodes := int(float64(e.cfg.NumNodes)*mult + 0.5)
		if nodes > e.big.Size() {
			nodes = e.big.Size()
		}
		points[p] = sweepPoint{
			nodes:       nodes,
			utilization: meanOf(loads),
			ratio: metrics.P50P90P99{
				P50: geoMean(r50),
				P90: geoMean(r90),
				P99: geoMean(r99),
			},
		}
	}
	return points, nil
}

// geoMean is the geometric mean, ignoring NaNs; NaN when all inputs are.
func geoMean(vals []float64) float64 {
	var sum float64
	n := 0
	for _, v := range vals {
		if math.IsNaN(v) || v <= 0 {
			continue
		}
		sum += math.Log(v)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(sum / float64(n))
}

// sweepReport renders sweep points as a report.
func sweepReport(id, title, subject, baseline string, points []sweepPoint, notes ...string) *Report {
	rep := &Report{
		ID:      id,
		Title:   title,
		Columns: []string{"nodes", "avg_util", "p50_ratio", "p90_ratio", "p99_ratio"},
		Notes: append([]string{
			fmt.Sprintf("ratios are %s response time divided by %s (< 1 means %s is faster); geometric mean of per-seed paired ratios", subject, baseline, subject),
		}, notes...),
	}
	for _, p := range points {
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", p.nodes),
			f2(p.utilization),
			f(p.ratio.P50), f(p.ratio.P90), f(p.ratio.P99),
		})
	}
	return rep
}
