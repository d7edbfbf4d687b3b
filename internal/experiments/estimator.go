package experiments

import (
	"context"
	"fmt"
	"math"

	"github.com/phoenix-sched/phoenix/internal/core"
	"github.com/phoenix-sched/phoenix/internal/metrics"
)

// EstimatorAccuracy is an extension experiment backing §VI-C's discussion
// of "the accuracy of waiting time estimations": Phoenix records, for every
// task start, the worker's last-heartbeat Pollaczek–Khinchin estimate next
// to the wait the task actually experienced, and the report buckets the
// pairs by estimate magnitude.
func EstimatorAccuracy(opts Options) (*Report, error) {
	e, err := newEnv(opts, "google")
	if err != nil {
		return nil, err
	}
	cl, err := e.clusterAt(1.0)
	if err != nil {
		return nil, err
	}
	// A single work unit: one instrumented Phoenix run.
	var a *Assembly
	err = opts.runUnits(1, func(ctx context.Context, _ int) error {
		tr, err := e.trace(0)
		if err != nil {
			return err
		}
		spec := opts.unit(cl, tr, SchedPhoenix, 0)
		spec.Phoenix.ValidateEstimates = true
		if a, err = Build(spec); err != nil {
			return err
		}
		_, err = a.Run(ctx)
		return err
	})
	if err != nil {
		return nil, err
	}
	samples := a.Scheduler.(*core.Scheduler).Monitor().EstimateSamples()
	if len(samples) == 0 {
		return nil, fmt.Errorf("experiments: estimator produced no samples")
	}

	type bucket struct {
		label           string
		lo, hi          float64 // estimate range, seconds
		n               int
		estSum, realSum float64
		absErrSum       float64
		realized        []float64
	}
	buckets := []*bucket{
		{label: "<0.1s", lo: 0, hi: 0.1},
		{label: "0.1-1s", lo: 0.1, hi: 1},
		{label: "1-5s", lo: 1, hi: 5},
		{label: "5-20s", lo: 5, hi: 20},
		{label: ">20s", lo: 20, hi: math.Inf(1)},
	}
	saturated := &bucket{label: "saturated"}
	for _, s := range samples {
		if math.IsInf(s.EstimateSeconds, 1) {
			saturated.n++
			saturated.realSum += s.RealizedSeconds
			saturated.realized = append(saturated.realized, s.RealizedSeconds)
			continue
		}
		for _, b := range buckets {
			if s.EstimateSeconds >= b.lo && s.EstimateSeconds < b.hi {
				b.n++
				b.estSum += s.EstimateSeconds
				b.realSum += s.RealizedSeconds
				b.absErrSum += math.Abs(s.EstimateSeconds - s.RealizedSeconds)
				b.realized = append(b.realized, s.RealizedSeconds)
				break
			}
		}
	}

	rep := &Report{
		ID:      "ext-estimator",
		Title:   "P-K waiting-time estimator accuracy (Phoenix, Google trace)",
		Columns: []string{"estimate_bucket", "tasks", "mean_estimate_s", "mean_realized_s", "mean_abs_err_s", "realized_p90_s"},
		Notes: []string{
			"extension backing §VI-C: estimates are heartbeat-stale, so accuracy is about ordering workers, not exact seconds",
			"'saturated' rows are starts on workers whose estimator saw rho >= 1 (estimate +Inf)",
		},
	}
	for _, b := range append(buckets, saturated) {
		if b.n == 0 {
			continue
		}
		meanEst := "inf"
		meanErr := "n/a"
		if !math.IsInf(b.hi, 1) || b.label != "saturated" {
			meanEst = f2(b.estSum / float64(b.n))
			meanErr = f2(b.absErrSum / float64(b.n))
		}
		if b.label == "saturated" {
			meanEst, meanErr = "inf", "n/a"
		}
		rep.Rows = append(rep.Rows, []string{
			b.label,
			fmt.Sprintf("%d", b.n),
			meanEst,
			f2(b.realSum / float64(b.n)),
			meanErr,
			f2(metrics.Percentile(b.realized, 90)),
		})
	}
	return rep, nil
}
