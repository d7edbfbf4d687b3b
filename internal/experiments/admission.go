package experiments

import (
	"context"
	"fmt"

	"github.com/phoenix-sched/phoenix/internal/admission"
	"github.com/phoenix-sched/phoenix/internal/constraint"
	"github.com/phoenix-sched/phoenix/internal/faults"
	"github.com/phoenix-sched/phoenix/internal/metrics"
	"github.com/phoenix-sched/phoenix/internal/simulation"
	"github.com/phoenix-sched/phoenix/internal/trace"
)

// admissionHorizonSeconds is the service admission horizon of every
// ext-admission work unit; both fault scenarios fit inside it with margin
// to recover.
const admissionHorizonSeconds = 600

// admissionSoftDimWeight replaces the Table II share of each soft dimension
// (clock 0.16, eth_speed 0.18 — a fraction of a percent of constrained
// demand) in the synthesizer for this experiment only. Without
// amplification the controller would see essentially no soft-dimension
// demand and the comparison would measure noise; with it, soft constraints
// carry roughly the share ISA-class hard constraints do, which is the
// regime the paper's §III-A negotiation story is about.
const admissionSoftDimWeight = 30

// admissionRackOutage mirrors scenarios/rack-outage.json: every POWER
// machine (isa=5, ~3% of the Google profile) fails at 300s and recovers at
// 550s. ISA is a hard dimension, so neither admission mode can relax away
// the damage — the scenario is the experiment's control arm.
func admissionRackOutage() *faults.Scenario {
	return &faults.Scenario{
		Name: "rack-outage",
		Phases: []faults.Phase{
			{Kind: faults.KindOutage, StartSeconds: 300, DurationSeconds: 250, Dim: "isa", Value: 5},
		},
	}
}

// admissionSupplyLoss mirrors scenarios/supply-loss.json: the legacy
// 100 Mbit/s machines (~10%) all fail from 120s to 360s — pinning the
// eth_speed CRV at the constraint.SupplyLostRatio sentinel while any
// eth=100-constrained job is queued — and the clock=2600 class (~39% of
// machines) serves 4x slower from 60s to 540s. Relaxing eth_speed during
// the outage is the only escape for stranded jobs; relaxing clock during
// the slowdown sends constrained jobs onto degraded machines they would
// otherwise have avoided. A feedback controller does the former and not
// the latter; the static baseline does both.
func admissionSupplyLoss() *faults.Scenario {
	return &faults.Scenario{
		Name: "supply-loss",
		Phases: []faults.Phase{
			{Kind: faults.KindOutage, StartSeconds: 120, DurationSeconds: 240, Dim: "eth_speed", Value: 100},
			{Kind: faults.KindSlowdown, StartSeconds: 60, DurationSeconds: 480, Dim: "clock", Value: 2600, Factor: 4},
		},
	}
}

// AdmissionControl is the ext-admission experiment: the CRV feedback
// controller (internal/admission) against the static always-relax baseline,
// across two fault scenarios (rack-outage on a hard dimension as control,
// supply-loss on the soft dimensions as treatment) times two open-loop
// arrival shapes (bursty, diurnal), Phoenix scheduling throughout. The
// claim under test: the controller matches or beats static relaxation on
// P99 wait while relaxing strictly fewer dimension-beats, because it pays
// the relaxation cost only while the CRV says the dimension is starved.
func AdmissionControl(opts Options) (*Report, error) {
	e, err := newEnv(opts, "google")
	if err != nil {
		return nil, err
	}
	// Amplified soft-dimension constraint share (see admissionSoftDimWeight).
	e.cfg.Synth.DimWeights[constraint.DimClock.Index()] = admissionSoftDimWeight
	e.cfg.Synth.DimWeights[constraint.DimEthSpeed.Index()] = admissionSoftDimWeight
	cl, err := e.clusterAt(1.0)
	if err != nil {
		return nil, err
	}

	modes := []string{"controller", "static"}
	scenarios := []*faults.Scenario{admissionRackOutage(), admissionSupplyLoss()}
	arrivals := []trace.ArrivalKind{trace.ArrivalBursty, trace.ArrivalDiurnal}
	type cell struct {
		admitted, waitP99, respP99         float64
		relaxedJobs, dimBeats, transitions float64
	}
	per := len(modes) * len(scenarios) * len(arrivals)
	n := per * opts.Seeds
	units := make([]cell, n)
	err = opts.runUnits(n, func(ctx context.Context, i int) error {
		mi := i % len(modes)
		si := (i / len(modes)) % len(scenarios)
		ai := (i / (len(modes) * len(scenarios))) % len(arrivals)
		rep := i / per
		src, err := trace.NewArrivalSource(e.cfg, trace.ArrivalConfig{Kind: arrivals[ai]}, e.big, uint64(1000+rep))
		if err != nil {
			return err
		}
		// Job records are retained (unlike ext-steadystate): the headline
		// metric is the exact P99 over all jobs, not a windowed median.
		spec := opts.unit(cl, nil, SchedPhoenix, rep)
		spec.Source = src
		spec.Faults = scenarios[si]
		spec.Admission = modes[mi]
		spec.AdmissionConfig = admission.DefaultConfig()
		a, err := Build(spec)
		if err != nil {
			return err
		}
		sr, err := a.RunService(ctx, admissionHorizonSeconds*simulation.Second)
		if err != nil {
			return fmt.Errorf("%s/%s/%s rep %d: %w", modes[mi], scenarios[si].Name, arrivals[ai], rep, err)
		}
		units[i] = cell{
			admitted:    float64(sr.JobsAdmitted),
			waitP99:     sr.Collector.QueueDelayPercentiles(metrics.All).P99,
			respP99:     sr.Collector.ResponsePercentiles(metrics.All).P99,
			relaxedJobs: float64(sr.Collector.RelaxedJobs),
			dimBeats:    float64(a.Admission.RelaxedDimBeats()),
			transitions: float64(a.Admission.ControllerTransitions()),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		ID:    "ext-admission",
		Title: "Admission control: CRV feedback controller vs static always-relax, under fault campaigns",
		Columns: []string{
			"scenario", "arrivals", "admission", "admitted",
			"wait_p99_s", "resp_p99_s", "relaxed_jobs",
			"relaxed_dim_beats", "transitions",
		},
		Notes: []string{
			fmt.Sprintf("google profile, phoenix scheduler, %ds service horizon, graceful drain; soft DimWeights amplified to %d so clock/eth_speed constraints carry measurable demand", admissionHorizonSeconds, admissionSoftDimWeight),
			"rack-outage scopes a hard dimension (isa) no admission mode can relax: the control arm",
			"supply-loss kills all eth=100 supply (CRV pinned at the SupplyLostRatio sentinel) and slows the clock=2600 class 4x: relaxation helps the former, hurts the latter",
			"relaxed_dim_beats is the relaxation area (dimensions held relaxed x heartbeats); the controller should win or tie wait_p99_s with strictly fewer",
		},
	}
	for si, sc := range scenarios {
		for ai, ak := range arrivals {
			for mi, mode := range modes {
				var adm, w99, r99, rj, db, tr []float64
				for r := 0; r < opts.Seeds; r++ {
					u := units[r*per+ai*len(modes)*len(scenarios)+si*len(modes)+mi]
					adm = append(adm, u.admitted)
					w99 = append(w99, u.waitP99)
					r99 = append(r99, u.respP99)
					rj = append(rj, u.relaxedJobs)
					db = append(db, u.dimBeats)
					tr = append(tr, u.transitions)
				}
				rep.Rows = append(rep.Rows, []string{
					sc.Name, string(ak), mode,
					fmt.Sprintf("%.0f", meanOf(adm)),
					f(meanOf(w99)), f(meanOf(r99)),
					fmt.Sprintf("%.1f", meanOf(rj)),
					fmt.Sprintf("%.1f", meanOf(db)),
					fmt.Sprintf("%.1f", meanOf(tr)),
				})
			}
		}
	}
	return rep, nil
}
