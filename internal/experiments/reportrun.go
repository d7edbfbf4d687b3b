package experiments

import (
	"context"

	"github.com/phoenix-sched/phoenix/internal/sched"
	"github.com/phoenix-sched/phoenix/internal/telemetry"
)

// ReportRun executes one telemetry-instrumented reference simulation — the
// run behind the -report/-timeseries flags of cmd/experiments. It builds
// the named profile's workload at the options' scale exactly as the
// table/figure experiments do (same cluster seed, same trace seed, same
// driver seed as repetition 0), attaches a telemetry Recorder, runs the
// named scheduler, and returns the recorder together with the run result
// and the metadata a report needs. Telemetry is scheduler-invisible, so
// the run's digest matches an uninstrumented repetition 0.
func ReportRun(o Options, schedName, profile string) (*telemetry.Recorder, *sched.Result, telemetry.Meta, error) {
	env, err := newEnv(o, profile)
	if err != nil {
		return nil, nil, telemetry.Meta{}, err
	}
	cl, err := env.clusterAt(1.0)
	if err != nil {
		return nil, nil, telemetry.Meta{}, err
	}
	tr, err := env.trace(0)
	if err != nil {
		return nil, nil, telemetry.Meta{}, err
	}
	spec := o.unit(cl, tr, schedName, 0)
	spec.Telemetry = &telemetry.Options{}
	a, err := Build(spec)
	if err != nil {
		return nil, nil, telemetry.Meta{}, err
	}
	res, err := a.Run(context.Background())
	if err != nil {
		return nil, nil, telemetry.Meta{}, err
	}
	return a.Recorder, res, a.Meta(res), nil
}
