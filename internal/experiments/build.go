package experiments

import (
	"context"
	"errors"
	"fmt"

	"github.com/phoenix-sched/phoenix/internal/admission"
	"github.com/phoenix-sched/phoenix/internal/cluster"
	"github.com/phoenix-sched/phoenix/internal/core"
	"github.com/phoenix-sched/phoenix/internal/faults"
	"github.com/phoenix-sched/phoenix/internal/sched"
	"github.com/phoenix-sched/phoenix/internal/schedulers/policies"
	"github.com/phoenix-sched/phoenix/internal/schedulers/sharded"
	"github.com/phoenix-sched/phoenix/internal/simulation"
	"github.com/phoenix-sched/phoenix/internal/telemetry"
	"github.com/phoenix-sched/phoenix/internal/trace"
	"github.com/phoenix-sched/phoenix/internal/validate"
)

// Spec declares one simulation run: its substrate, its scheduler stack and
// the layers attached to the driver. Build is the one place that turns a
// Spec into a runnable driver, so every run of the CLIs and experiments is
// assembled in the same order (DESIGN.md §19).
type Spec struct {
	// Config is the driver configuration (sched.DefaultConfig() for the
	// paper's settings).
	Config sched.Config
	// Cluster is the machine set the run schedules onto.
	Cluster *cluster.Cluster
	// Seed seeds the driver's random streams.
	Seed uint64
	// Trace is a batch run's workload (Assembly.Run). Exactly one of Trace
	// and Source is set.
	Trace *trace.Trace
	// Source streams a service run's jobs (Assembly.RunService).
	Source sched.JobSource

	// Scheduler names the scheduler (Options.NewScheduler); Phoenix
	// carries its parameters when it is Phoenix.
	Scheduler string
	Phoenix   core.Options
	// Shards, when positive, wraps one scheduler instance per cluster
	// partition in the sharded meta-scheduler; 1 is its pass-through
	// wrapper. Zero leaves the scheduler unwrapped.
	Shards int
	// Policies are policy plug-ins wrapped around the (sharded) scheduler,
	// innermost first (policies.Wrap).
	Policies []string

	// Faults, when non-nil, replays this fault campaign.
	Faults *faults.Scenario
	// Admission selects admission control: "" or "off", "controller" (the
	// feedback loop, tuned by AdmissionConfig) or "static".
	Admission       string
	AdmissionConfig admission.Config
	// Validate attaches the invariant checker; a violation fails the run.
	Validate bool
	// Windows, when non-nil, attaches a tumbling-window recorder.
	Windows *telemetry.WindowOptions
	// Telemetry, when non-nil, attaches a telemetry recorder. Build fills
	// its CRV, Gang and Admission sources from the assembled stack, and a
	// zero CRVThreshold takes Phoenix's.
	Telemetry *telemetry.Options
	// DropJobRecords folds per-job records into the streaming digest
	// instead of retaining them (bounded memory; the digest is unchanged).
	DropJobRecords bool
}

// Assembly is a built Spec: the driver and the handles of every layer
// attached to it. Layers the Spec did not ask for are nil.
type Assembly struct {
	Spec   Spec
	Driver *sched.Driver
	// Scheduler is the outermost scheduler the driver calls.
	Scheduler sched.Scheduler
	Checker   *validate.Checker
	Campaign  *faults.Campaign
	Admission telemetry.AdmissionSource
	Windows   *telemetry.WindowRecorder
	Recorder  *telemetry.Recorder
}

// Build assembles spec in one fixed order. The scheduler is wrapped per
// shard first and by the policies outermost; the driver is then built and
// the layers attach as validate, faults, admission, windows, telemetry.
// Attachers that schedule engine events break same-time ties by insertion
// order, so this order is part of every run's digest.
func Build(spec Spec) (*Assembly, error) {
	if (spec.Trace == nil) == (spec.Source == nil) {
		return nil, errors.New("experiments: a spec needs exactly one of Trace and Source")
	}
	if spec.Shards < 0 {
		return nil, fmt.Errorf("experiments: shard count %d is negative", spec.Shards)
	}
	o := Options{Phoenix: spec.Phoenix}
	newSched := func() (sched.Scheduler, error) { return o.NewScheduler(spec.Scheduler) }
	var s sched.Scheduler
	var err error
	if spec.Shards > 0 {
		s, err = sharded.NewWith(spec.Scheduler, spec.Shards, newSched)
	} else {
		s, err = newSched()
	}
	if err != nil {
		return nil, err
	}
	if s, err = policies.Wrap(s, spec.Policies); err != nil {
		return nil, err
	}

	a := &Assembly{Spec: spec, Scheduler: s}
	if spec.Trace != nil {
		a.Driver, err = sched.NewDriver(spec.Config, spec.Cluster, spec.Trace, s, spec.Seed)
	} else {
		a.Driver, err = sched.NewServiceDriver(spec.Config, spec.Cluster, spec.Source, s, spec.Seed)
	}
	if err != nil {
		return nil, err
	}
	d := a.Driver
	if spec.DropJobRecords {
		d.Collector().DropJobRecords()
	}
	if spec.Validate {
		a.Checker = validate.Attach(d)
	}
	if spec.Faults != nil {
		if a.Campaign, err = faults.Attach(d, spec.Faults); err != nil {
			return nil, err
		}
	}
	switch spec.Admission {
	case "", "off":
	case "static":
		a.Admission = admission.AttachStatic(d)
	case "controller":
		ctl, err := admission.Attach(d, spec.AdmissionConfig)
		if err != nil {
			return nil, err
		}
		a.Admission = ctl
	default:
		return nil, fmt.Errorf("experiments: unknown admission mode %q (off, controller, static)", spec.Admission)
	}
	if spec.Windows != nil {
		a.Windows = telemetry.AttachWindows(d, *spec.Windows)
	}
	if spec.Telemetry != nil {
		topts := *spec.Telemetry
		if topts.CRVThreshold == 0 {
			topts.CRVThreshold = spec.Phoenix.CRVThreshold
		}
		h := sched.HooksOf(s)
		topts.CRV, topts.Gang = h.CRV, h.Gang
		topts.Admission = a.Admission
		a.Recorder = telemetry.Attach(d, topts)
	}
	return a, nil
}

// Run executes a batch assembly to completion under ctx and finalizes the
// invariant checker. A cancelled ctx halts the simulation between events;
// the run then returns ctx's error, never simulation.ErrHalted, so the
// experiment pool can tell a cancellation casualty from a failure.
func (a *Assembly) Run(ctx context.Context) (*sched.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// A cancel's halt can land after Run has returned (AfterFunc runs it
	// on its own goroutine, and stop does not wait for it). That is benign
	// here, unlike in Driver.RunService's drain: the driver never runs
	// again, so a late halt only raises the flag on an engine nobody
	// steps, and the result or error already returned stands.
	stop := context.AfterFunc(ctx, a.Driver.Halt)
	defer stop()
	res, err := a.Driver.Run()
	if err != nil {
		if ctx.Err() != nil && errors.Is(err, simulation.ErrHalted) {
			return nil, ctx.Err()
		}
		return nil, err
	}
	if err := a.finalize(); err != nil {
		return nil, err
	}
	return res, nil
}

// RunService executes a service assembly, admitting arrivals until horizon
// (zero: until the source ends or ctx is cancelled), and finalizes the
// invariant checker. Cancelling ctx triggers the driver's graceful drain;
// the drained result is then returned together with ctx's error, which
// the experiment pool treats as a cancellation and the CLI as Ctrl-C.
func (a *Assembly) RunService(ctx context.Context, horizon simulation.Time) (*sched.ServiceResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sr, err := a.Driver.RunService(ctx, horizon)
	if err != nil {
		return nil, err
	}
	if err := a.finalize(); err != nil {
		return nil, err
	}
	if sr.Cancelled {
		if err := ctx.Err(); err != nil {
			return sr, err
		}
	}
	return sr, nil
}

// finalize runs the checker's end-of-run conservation checks, if attached.
func (a *Assembly) finalize() error {
	if a.Checker == nil {
		return nil
	}
	if err := a.Checker.Finalize(); err != nil {
		return fmt.Errorf("%s seed %d: %w", a.Scheduler.Name(), a.Spec.Seed, err)
	}
	return nil
}

// FaultWindows is the campaign's realized timeline as run-report fault
// windows; nil without a campaign. Complete once the run has returned.
func (a *Assembly) FaultWindows() []telemetry.FaultWindow {
	if a.Campaign == nil {
		return nil
	}
	var out []telemetry.FaultWindow
	for _, w := range a.Campaign.Timeline() {
		out = append(out, telemetry.FaultWindow{
			Kind:    string(w.Kind),
			From:    w.From,
			To:      w.To,
			Workers: w.Workers,
			Detail:  w.Detail,
		})
	}
	return out
}

// Meta is the run-report metadata of a finished batch assembly.
func (a *Assembly) Meta(res *sched.Result) telemetry.Meta {
	tr := a.Spec.Trace
	return telemetry.Meta{
		Scheduler:   res.Scheduler,
		Workload:    tr.Name,
		Jobs:        len(tr.Jobs),
		Tasks:       tr.NumTasks(),
		Workers:     res.NumWorkers,
		OfferedLoad: tr.OfferedLoad(a.Spec.Cluster.Size()),
		Seed:        a.Spec.Seed,
		Span:        res.Span,
		Utilization: res.Utilization,
		Faults:      a.FaultWindows(),
	}
}

// unit is the batch Spec of one experiment work unit under o: the named
// scheduler with o's Phoenix parameters on cl and tr, seeded for
// repetition rep, with the invariant checker when o asks for validation.
// Service units set Source in place of a nil tr.
func (o *Options) unit(cl *cluster.Cluster, tr *trace.Trace, name string, rep int) Spec {
	return Spec{
		Config:    sched.DefaultConfig(),
		Cluster:   cl,
		Seed:      driverSeed(rep),
		Trace:     tr,
		Scheduler: name,
		Phoenix:   o.Phoenix,
		Validate:  o.ValidateRuns,
	}
}

// runSpec builds spec and runs the batch assembly to completion under ctx.
func runSpec(ctx context.Context, spec Spec) (*sched.Result, error) {
	a, err := Build(spec)
	if err != nil {
		return nil, err
	}
	return a.Run(ctx)
}
