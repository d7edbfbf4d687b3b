package experiments

import (
	"context"
	"fmt"

	"github.com/phoenix-sched/phoenix/internal/simulation"
	"github.com/phoenix-sched/phoenix/internal/telemetry"
	"github.com/phoenix-sched/phoenix/internal/trace"
)

// Steady-state service runs admit Poisson arrivals for a fixed simulated
// horizon and measure windowed percentiles past the MSER warm-up cut.
const (
	steadyHorizonSeconds = 600
	steadyWindowSeconds  = 30
)

// SteadyState is an extension experiment no batch run can express: all six
// schedulers under open-loop service mode — continuous Poisson arrivals at
// the Google profile's calibrated load for a fixed horizon — compared on
// steady-state windowed wait percentiles (median across post-warm-up
// tumbling windows) rather than whole-run aggregates, which conflate the
// warm-up transient with equilibrium behaviour.
func SteadyState(opts Options) (*Report, error) {
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
	type cell struct {
		admitted            float64
		windows, warmup     float64
		p50, p95, p99, util float64
		ci50, ci95, ci99    float64
	}
	n := len(scheds) * opts.Seeds
	units := make([]cell, n)
	err = opts.runUnits(n, func(ctx context.Context, i int) error {
		si, rep := i%len(scheds), i/len(scheds)
		// Poisson arrivals seeded like repetition rep's batch trace, with
		// bounded memory: job records dropped, windowed telemetry ringed.
		src, err := trace.NewArrivalSource(e.cfg, trace.ArrivalConfig{Kind: trace.ArrivalPoisson}, e.big, uint64(1000+rep))
		if err != nil {
			return err
		}
		spec := opts.unit(cl, nil, scheds[si], rep)
		spec.Source = src
		spec.DropJobRecords = true
		spec.Windows = &telemetry.WindowOptions{
			Interval:   steadyWindowSeconds * simulation.Second,
			MaxWindows: 4 * steadyHorizonSeconds / steadyWindowSeconds,
		}
		a, err := Build(spec)
		if err != nil {
			return err
		}
		sr, err := a.RunService(ctx, steadyHorizonSeconds*simulation.Second)
		if err != nil {
			return err
		}
		wr := a.Windows
		p50, p95, p99 := wr.SteadyWaitPercentiles()
		ci50, ci95, ci99 := wr.SteadyWaitCI()
		units[i] = cell{
			admitted: float64(sr.JobsAdmitted),
			windows:  float64(wr.TotalWindows()),
			warmup:   float64(wr.WarmupWindows()),
			p50:      p50,
			p95:      p95,
			p99:      p99,
			util:     sr.Utilization,
			ci50:     ci50,
			ci95:     ci95,
			ci99:     ci99,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		ID:    "ext-steadystate",
		Title: "Steady state: open-loop Poisson service runs, windowed wait percentiles past MSER warm-up",
		Columns: []string{
			"scheduler", "admitted", "windows", "warmup",
			"wait_p50_s", "p50_ci", "wait_p95_s", "p95_ci",
			"wait_p99_s", "p99_ci", "util",
		},
		Notes: []string{
			fmt.Sprintf("google profile, poisson arrivals at calibrated load, %ds horizon, %ds windows, graceful drain", steadyHorizonSeconds, steadyWindowSeconds),
			"percentiles are medians across post-warm-up windows (streaming histograms, <=2.5% relative error)",
			"p*_ci are 95% batch-means half-widths over the post-warm-up window series (mean over seeds)",
		},
	}
	for si, name := range scheds {
		var adm, win, wu, p50, p95, p99, util []float64
		var ci50, ci95, ci99 []float64
		for rep := 0; rep < opts.Seeds; rep++ {
			u := units[rep*len(scheds)+si]
			adm = append(adm, u.admitted)
			win = append(win, u.windows)
			wu = append(wu, u.warmup)
			p50 = append(p50, u.p50)
			p95 = append(p95, u.p95)
			p99 = append(p99, u.p99)
			util = append(util, u.util)
			ci50 = append(ci50, u.ci50)
			ci95 = append(ci95, u.ci95)
			ci99 = append(ci99, u.ci99)
		}
		rep.Rows = append(rep.Rows, []string{
			name,
			fmt.Sprintf("%.0f", meanOf(adm)),
			fmt.Sprintf("%.1f", meanOf(win)),
			fmt.Sprintf("%.1f", meanOf(wu)),
			f(meanOf(p50)), f(meanOf(ci50)),
			f(meanOf(p95)), f(meanOf(ci95)),
			f(meanOf(p99)), f(meanOf(ci99)),
			f2(meanOf(util)),
		})
	}
	return rep, nil
}
