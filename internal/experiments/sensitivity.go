package experiments

import (
	"context"
	"fmt"

	"github.com/phoenix-sched/phoenix/internal/metrics"
	"github.com/phoenix-sched/phoenix/internal/sched"
	"github.com/phoenix-sched/phoenix/internal/simulation"
)

// The paper's §V-A explores the design space before fixing the probe ratio
// at 2 and the heartbeat interval at 9 s. These two experiments regenerate
// that exploration: Phoenix on the Google workload at the base (high-load)
// sweep point, varying one parameter.

// SensProbeRatio sweeps the probe ratio ("a tradeoff between mis-estimation
// penalty vs redundant proxy probes", §V-A).
func SensProbeRatio(opts Options) (*Report, error) {
	ratios := []int{1, 2, 3, 4, 6}
	rows, err := sensitivity(opts, len(ratios), func(cfg *sched.Config, i int) string {
		cfg.ProbeRatio = ratios[i]
		return fmt.Sprintf("%d", ratios[i])
	})
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:      "sens-probe",
		Title:   "Probe-ratio sensitivity, Phoenix on Google at high load",
		Columns: []string{"probe_ratio", "short_p50_s", "short_p90_s", "short_p99_s", "probes"},
		Rows:    rows,
		Notes: []string{
			"paper §V-A: ratio 2 balances mis-estimation against redundant probes",
		},
	}, nil
}

// SensHeartbeat sweeps the CRV monitor's heartbeat interval ("after a
// detailed sensitivity analysis ... we empirically set the frequency to
// 9s", §VI-C).
func SensHeartbeat(opts Options) (*Report, error) {
	intervals := []simulation.Time{
		3 * simulation.Second,
		6 * simulation.Second,
		9 * simulation.Second,
		15 * simulation.Second,
		30 * simulation.Second,
	}
	rows, err := sensitivity(opts, len(intervals), func(cfg *sched.Config, i int) string {
		cfg.Heartbeat = intervals[i]
		return fmt.Sprintf("%.0f", intervals[i].Seconds())
	})
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:      "sens-heartbeat",
		Title:   "Heartbeat-interval sensitivity, Phoenix on Google at high load",
		Columns: []string{"heartbeat_s", "short_p50_s", "short_p90_s", "short_p99_s", "probes"},
		Rows:    rows,
		Notes: []string{
			"paper §VI-C: 9 s balances estimation accuracy against synchronization cost",
		},
	}, nil
}

// sensitivity runs Phoenix on the Google base point once per parameter
// setting (Seeds repetitions each, short-job response samples pooled per
// setting) and renders one row per setting.
func sensitivity(opts Options, settings int, apply func(*sched.Config, int) string) ([][]string, error) {
	e, err := newEnv(opts, "google")
	if err != nil {
		return nil, err
	}
	cl, err := e.clusterAt(1.0)
	if err != nil {
		return nil, err
	}

	// Labels are a pure function of the setting index; resolve them up
	// front so the pool units never share a writable slot.
	labels := make([]string, settings)
	for si := 0; si < settings; si++ {
		cfg := sched.DefaultConfig()
		labels[si] = apply(&cfg, si)
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
	}

	// One work unit per (setting, repetition); samples and probe counts are
	// pooled per setting in unit order after the drain.
	type unit struct {
		samples []float64
		probes  int64
	}
	n := settings * opts.Seeds
	units := make([]unit, n)
	err = opts.runUnits(n, func(ctx context.Context, i int) error {
		si, rep := i%settings, i/settings
		tr, err := e.trace(rep)
		if err != nil {
			return err
		}
		spec := opts.unit(cl, tr, SchedPhoenix, rep)
		apply(&spec.Config, si)
		res, err := runSpec(ctx, spec)
		if err != nil {
			return err
		}
		units[i] = unit{samples: res.Collector.ResponseTimes(metrics.Short), probes: res.Collector.Probes}
		return nil
	})
	if err != nil {
		return nil, err
	}

	samples := make([][]float64, settings)
	probes := make([]int64, settings)
	for i, u := range units {
		si := i % settings
		samples[si] = append(samples[si], u.samples...)
		probes[si] += u.probes
	}

	rows := make([][]string, 0, settings)
	for si := 0; si < settings; si++ {
		p := metrics.Percentiles(samples[si], 50, 90, 99)
		rows = append(rows, []string{
			labels[si], f2(p[0]), f2(p[1]), f2(p[2]),
			fmt.Sprintf("%d", probes[si]/int64(opts.Seeds)),
		})
	}
	return rows, nil
}
