package sched

import (
	"context"
	"errors"
	"fmt"

	"github.com/phoenix-sched/phoenix/internal/cluster"
	"github.com/phoenix-sched/phoenix/internal/simulation"
	"github.com/phoenix-sched/phoenix/internal/trace"
)

// JobSource feeds jobs into a service-mode driver one at a time, in
// non-decreasing arrival order with dense IDs from 0. The driver pulls the
// next job only after the previous one's arrival event fires, so a source
// backed by a generator (trace.ArrivalSource) keeps memory bounded no
// matter how long the run: at most one future job is materialized at a
// time. A false second return ends admission early (finite replay sources);
// open-loop generators return true forever.
type JobSource interface {
	// NextJob returns the next arriving job, or ok=false when the source
	// is exhausted.
	NextJob() (*trace.Job, bool)
	// ShortCutoff is the mean-task-duration threshold the driver
	// classifies jobs with, standing in for a materialized trace's field.
	ShortCutoff() simulation.Time
}

// ServiceResult summarizes one service-mode run.
type ServiceResult struct {
	Result
	// JobsAdmitted is how many jobs entered the system before admission
	// closed (the horizon or a context cancel).
	JobsAdmitted int
	// Horizon is the admission deadline the run was configured with
	// (0 = unbounded, ended only by cancel or source exhaustion).
	Horizon simulation.Time
	// Cancelled reports whether a context cancel closed admission before
	// the horizon.
	Cancelled bool
	// DrainedAt is the virtual time the last queued work completed.
	DrainedAt simulation.Time
}

// NewServiceDriver constructs an open-loop service run: jobs stream from
// src instead of a pre-materialized trace. The driver is used with
// RunService (Run refuses it); everything else — scheduler hooks,
// observers, fault injection, telemetry — behaves exactly as in batch mode.
func NewServiceDriver(cfg Config, cl *cluster.Cluster, src JobSource, s Scheduler, seed uint64) (*Driver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cl.Size() == 0 {
		return nil, fmt.Errorf("sched: empty cluster")
	}
	if src == nil {
		return nil, fmt.Errorf("sched: nil job source")
	}
	cutoff := src.ShortCutoff()
	if cutoff <= 0 {
		return nil, fmt.Errorf("sched: job source short cutoff %v must be positive", cutoff)
	}
	// The placeholder trace carries the classification cutoff; its empty
	// job list marks every arriving job as service-admitted for the
	// validate layer.
	tr := &trace.Trace{Name: "service", NumNodes: cl.Size(), ShortCutoff: cutoff}
	d, err := newDriver(cfg, cl, tr, s, seed)
	if err != nil {
		return nil, err
	}
	d.src = src
	d.serviceMode = true
	return d, nil
}

// ServiceMode reports whether the driver streams jobs from a JobSource
// (NewServiceDriver) rather than replaying a materialized trace.
func (d *Driver) ServiceMode() bool { return d.serviceMode }

// AdmissionOpen reports whether the service run is still admitting new
// arrivals. Always false in batch mode.
func (d *Driver) AdmissionOpen() bool { return d.admissionOpen }

// JobsAdmitted reports how many jobs have entered the system so far in a
// service run.
func (d *Driver) JobsAdmitted() int { return d.jobsAdmitted }

// ServiceDone reports whether a service run has closed admission and
// drained every admitted job — the signal periodic instrumentation (the
// telemetry tickers) uses to stop rescheduling so the event queue can
// empty. Always false in batch mode (batch tickers key off job counts).
func (d *Driver) ServiceDone() bool {
	return d.serviceMode && !d.admissionOpen && d.pendingJobs == 0
}

// RunService executes an open-loop service run: admit arrivals from the
// source until the horizon passes (jobs arriving strictly before horizon
// are admitted), then run down the queues and return. A zero horizon
// admits until the source is exhausted or ctx is cancelled.
//
// Cancelling ctx triggers a graceful drain from any point in the run: the
// driver stops admitting new jobs, finishes every job already admitted,
// notifies DrainObservers exactly once, and returns a complete
// ServiceResult with Cancelled set. The drain is deterministic in virtual
// time given the set of admitted jobs; only which jobs were admitted
// depends on when the cancel lands in wall-clock terms.
func (d *Driver) RunService(ctx context.Context, horizon simulation.Time) (*ServiceResult, error) {
	if !d.serviceMode {
		return nil, fmt.Errorf("sched: RunService on a batch driver (use NewServiceDriver)")
	}
	if err := d.scheduler.Init(d); err != nil {
		return nil, fmt.Errorf("sched: init %s: %w", d.scheduler.Name(), err)
	}
	d.admissionOpen = true
	d.scheduleNextArrival()
	if horizon > 0 {
		// Scheduled before any arrival at the same timestamp can be, so
		// at t == horizon the close always wins the tie: the horizon is
		// exclusive and deterministic.
		d.engine.Schedule(horizon, func(simulation.Time) { d.closeAdmission() })
	}
	if d.hooks.Heartbeat != nil {
		d.engine.Schedule(d.cfg.Heartbeat, d.heartbeat)
	}
	if d.cfg.FailureRatePerHour > 0 {
		d.failStream = d.rng.Stream("driver/failures")
		d.scheduleNextFailure()
	}

	cancelled := false
	var settle func()
	if ctx != nil {
		settle = haltOnCancel(ctx, d.Halt)
	}
	err := d.engine.Run()
	if settle != nil {
		settle()
	}
	if errors.Is(err, simulation.ErrHalted) && ctx != nil && ctx.Err() != nil {
		// Graceful drain: close admission and re-enter the event loop.
		// The halt that ended the first Run need not be the cancel's: a
		// synchronous Halt may have been consumed first. settle has
		// waited until the cancel's halt, if it fired, has landed, so
		// clearing the flag here leaves nothing that can halt the drain.
		// Halt being sticky also covers the construction-to-run window: a
		// cancel landing before the first event loop iteration still
		// halts the run instead of being dropped.
		cancelled = true
		d.engine.ClearHalt()
		d.closeAdmission()
		err = d.engine.Run()
	}
	if err != nil {
		return nil, err
	}
	if d.pendingJobs != 0 {
		return nil, fmt.Errorf("sched: %s drained with %d jobs incomplete", d.scheduler.Name(), d.pendingJobs)
	}
	d.admissionOpen = false // source exhaustion with no horizon lands here too
	// The last admitted job's completion, not engine.Now(): the final event
	// may be a telemetry tick at a later timestamp, and the drain point
	// must not depend on whether instrumentation was attached.
	drained := d.span
	d.notifyDrain(drained)
	return &ServiceResult{
		Result: Result{
			Scheduler:   d.scheduler.Name(),
			Collector:   d.collector,
			Span:        d.span,
			Utilization: d.collector.Utilization(len(d.workers), d.span),
			NumWorkers:  len(d.workers),
		},
		JobsAdmitted: d.jobsAdmitted,
		Horizon:      horizon,
		Cancelled:    cancelled,
		DrainedAt:    drained,
	}, nil
}

// afterFunc is context.AfterFunc; tests replace it to force the
// interleavings of a cancel racing the end of a run.
var afterFunc = context.AfterFunc

// haltOnCancel arranges for halt to run once ctx is cancelled. The returned
// settle detaches it and, if halt has already started on the context's
// goroutine, waits for it to return: after settle, no halt from ctx can
// land later. Without the wait a cancel that fired just as the run ended
// could halt a Run started afterwards.
func haltOnCancel(ctx context.Context, halt func()) (settle func()) {
	done := make(chan struct{})
	stop := afterFunc(ctx, func() {
		defer close(done)
		halt()
	})
	return func() {
		if !stop() {
			<-done
		}
	}
}

// scheduleNextArrival pulls one job from the source and arms its arrival
// event. The follow-up pull happens inside the arrival event, so exactly
// one future job is materialized at any moment — the property that keeps
// service-mode memory bounded by completed-job accounting, not by the
// length of the run.
func (d *Driver) scheduleNextArrival() {
	job, ok := d.src.NextJob()
	if !ok {
		d.admissionOpen = false
		d.nextArrival = nil
		return
	}
	d.nextArrival = d.engine.Schedule(job.Arrival, func(simulation.Time) {
		d.nextArrival = nil
		d.pendingJobs++
		d.jobsAdmitted++
		js := d.newJobState(job)
		d.notifyJobArrival(js)
		d.scheduler.SubmitJob(d, js)
		if d.admissionOpen {
			d.scheduleNextArrival()
		}
	})
}

// closeAdmission stops the arrival process: the armed arrival event (if
// any) is cancelled and no further jobs are pulled from the source. Jobs
// already admitted run to completion. Idempotent.
func (d *Driver) closeAdmission() {
	if !d.admissionOpen {
		return
	}
	d.admissionOpen = false
	if d.nextArrival != nil {
		d.engine.Cancel(d.nextArrival)
		d.nextArrival = nil
	}
}
