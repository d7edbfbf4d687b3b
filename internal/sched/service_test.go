package sched

import (
	"context"
	"testing"
	"time"

	"github.com/phoenix-sched/phoenix/internal/cluster"
	"github.com/phoenix-sched/phoenix/internal/simulation"
	"github.com/phoenix-sched/phoenix/internal/trace"
)

// serviceTestbed builds a small cluster and a calibrated streaming source.
func serviceTestbed(t *testing.T, numMachines int, ac trace.ArrivalConfig) (*cluster.Cluster, trace.GeneratorConfig, *trace.ArrivalSource) {
	t.Helper()
	cl, err := cluster.GoogleProfile().GenerateCluster(numMachines, simulation.NewRNG(1).Stream("m"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.GoogleConfig(1.0)
	cfg.NumNodes = numMachines
	cfg.TargetLoad = 0.7
	src, err := trace.NewArrivalSource(cfg, ac, cl, 42)
	if err != nil {
		t.Fatal(err)
	}
	return cl, cfg, src
}

// finiteSource wraps an ArrivalSource and ends admission after n jobs, the
// replay-style exhaustion path a never-ending generator cannot exercise.
type finiteSource struct {
	src  *trace.ArrivalSource
	left int
}

func (f *finiteSource) NextJob() (*trace.Job, bool) {
	if f.left <= 0 {
		return nil, false
	}
	f.left--
	return f.src.NextJob()
}

func (f *finiteSource) ShortCutoff() simulation.Time { return f.src.ShortCutoff() }

// drainCounter counts drain notifications, asserting exactly-once delivery.
type drainCounter struct {
	NopObserver
	drains int
	at     simulation.Time
}

func (c *drainCounter) OnDrain(d *Driver, now simulation.Time) {
	c.drains++
	c.at = now
}

func TestServiceDriverRunsToHorizon(t *testing.T) {
	cl, _, src := serviceTestbed(t, 60, trace.ArrivalConfig{})
	d, err := NewServiceDriver(DefaultConfig(), cl, src, &fifoScheduler{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	dc := &drainCounter{}
	d.AttachObserver(dc)
	horizon := 120 * simulation.Second
	res, err := d.RunService(context.Background(), horizon)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cancelled {
		t.Error("uncancelled run reported Cancelled")
	}
	if res.JobsAdmitted == 0 {
		t.Fatal("no jobs admitted over the horizon")
	}
	if got := res.Collector.JobsAdded(); got != res.JobsAdmitted {
		t.Errorf("collector finished %d jobs, admitted %d — lost or double-counted work", got, res.JobsAdmitted)
	}
	if d.ServiceDone() != true {
		t.Error("ServiceDone false after a drained run")
	}
	if dc.drains != 1 {
		t.Errorf("drain notified %d times, want exactly 1", dc.drains)
	}
	if dc.at != res.DrainedAt {
		t.Errorf("drain notification at %v, result says %v", dc.at, res.DrainedAt)
	}
	if res.DrainedAt < horizon-DefaultConfig().Heartbeat {
		// Every admitted job arrives before the horizon; the last one's
		// completion cannot be much earlier under continuous arrivals.
		t.Errorf("drained at %v, implausibly early for horizon %v", res.DrainedAt, horizon)
	}
}

// TestServiceHorizonIsExclusive pins the tie-break that makes fixed-horizon
// runs deterministic: a job arriving exactly at the horizon is not admitted,
// because the close event was scheduled first and equal-time events run in
// insertion order.
func TestServiceHorizonIsExclusive(t *testing.T) {
	cl, cfg, src := serviceTestbed(t, 60, trace.ArrivalConfig{})
	// Find the exact arrival time of some job and use it as the horizon.
	probe, err := trace.NewArrivalSource(cfg, trace.ArrivalConfig{}, cl, 42)
	if err != nil {
		t.Fatal(err)
	}
	var horizon simulation.Time
	admittable := 0
	for i := 0; i < 50; i++ {
		j, _ := probe.NextJob()
		if i == 49 {
			horizon = j.Arrival
		}
	}
	probe2, err := trace.NewArrivalSource(cfg, trace.ArrivalConfig{}, cl, 42)
	if err != nil {
		t.Fatal(err)
	}
	for {
		j, _ := probe2.NextJob()
		if j.Arrival >= horizon {
			break
		}
		admittable++
	}
	d, err := NewServiceDriver(DefaultConfig(), cl, src, &fifoScheduler{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.RunService(context.Background(), horizon)
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsAdmitted != admittable {
		t.Errorf("admitted %d jobs, want %d (horizon must be exclusive)", res.JobsAdmitted, admittable)
	}
}

func TestServiceSourceExhaustionEndsRun(t *testing.T) {
	cl, _, src := serviceTestbed(t, 60, trace.ArrivalConfig{})
	const n = 80
	d, err := NewServiceDriver(DefaultConfig(), cl, &finiteSource{src: src, left: n}, &fifoScheduler{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.RunService(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsAdmitted != n {
		t.Errorf("admitted %d, want %d", res.JobsAdmitted, n)
	}
	if res.Cancelled {
		t.Error("exhaustion misreported as cancellation")
	}
	if got := res.Collector.JobsAdded(); got != n {
		t.Errorf("collector finished %d jobs, want %d", got, n)
	}
}

// TestServiceCancelDrainsGracefully cancels the context from inside the
// event loop mid-run and asserts the graceful-drain contract: every
// admitted job still completes, the drain notification fires exactly once,
// and the result is complete with Cancelled set.
func TestServiceCancelDrainsGracefully(t *testing.T) {
	cl, _, src := serviceTestbed(t, 60, trace.ArrivalConfig{})
	d, err := NewServiceDriver(DefaultConfig(), cl, src, &fifoScheduler{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	dc := &drainCounter{}
	d.AttachObserver(dc)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel at a fixed virtual time, long before the 1-hour horizon.
	// Halting synchronously right after the cancel pins the halt point in
	// virtual time; the production path's AfterFunc halt may land after
	// that, which TestServiceLateCancelHaltCannotStopDrain pins down.
	d.Every(30*simulation.Second, func(simulation.Time) bool {
		cancel()
		d.Halt()
		return false
	})
	res, err := d.RunService(ctx, 3600*simulation.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled {
		t.Error("cancelled run not reported as Cancelled")
	}
	if res.JobsAdmitted == 0 {
		t.Fatal("no jobs admitted before the cancel")
	}
	if got := res.Collector.JobsAdded(); got != res.JobsAdmitted {
		t.Errorf("collector finished %d jobs, admitted %d — drain lost work", got, res.JobsAdmitted)
	}
	if dc.drains != 1 {
		t.Errorf("drain notified %d times, want exactly 1", dc.drains)
	}
	if !d.ServiceDone() {
		t.Error("ServiceDone false after graceful drain")
	}
}

// TestServiceLateCancelHaltCannotStopDrain forces the interleaving where
// a synchronous Halt ends the first Run and the context's own halt lands
// only afterwards, as the run returns. The AfterFunc seam hands the halt
// to the run's stop call: "sync" runs it there and then, "async" starts it
// on another goroutine, both reporting it as already started. Either way
// the late halt must not stop the drain. The race detector cannot see this
// bug — it is a logic race on an atomic flag, not a data race — so the
// seam makes it deterministic.
func TestServiceLateCancelHaltCannotStopDrain(t *testing.T) {
	for _, mode := range []string{"sync", "async"} {
		t.Run(mode, func(t *testing.T) {
			defer func(orig func(context.Context, func()) func() bool) { afterFunc = orig }(afterFunc)
			fired := 0
			afterFunc = func(_ context.Context, f func()) func() bool {
				return func() bool {
					fired++
					if mode == "sync" {
						f()
					} else {
						go f()
					}
					return false
				}
			}
			cl, _, src := serviceTestbed(t, 60, trace.ArrivalConfig{})
			d, err := NewServiceDriver(DefaultConfig(), cl, src, &fifoScheduler{}, 7)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			d.Every(30*simulation.Second, func(simulation.Time) bool {
				cancel()
				d.Halt()
				return false
			})
			res, err := d.RunService(ctx, 3600*simulation.Second)
			if err != nil {
				t.Fatalf("late cancel halt stopped the drain: %v", err)
			}
			if fired != 1 {
				t.Fatalf("seam stop called %d times, want 1", fired)
			}
			if !res.Cancelled {
				t.Error("cancelled run not reported as Cancelled")
			}
			if got := res.Collector.JobsAdded(); got != res.JobsAdmitted {
				t.Errorf("collector finished %d jobs, admitted %d", got, res.JobsAdmitted)
			}
		})
	}
}

// TestHaltOnCancelSettleWaitsForHalt holds the cancel's halt mid-flight
// and checks that settle does not return before the halt does.
func TestHaltOnCancelSettleWaitsForHalt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	entered, release := make(chan struct{}), make(chan struct{})
	halted := false
	settle := haltOnCancel(ctx, func() {
		close(entered)
		<-release
		halted = true
	})
	cancel()
	<-entered
	settled := make(chan struct{})
	go func() {
		settle()
		close(settled)
	}()
	select {
	case <-settled:
		t.Fatal("settle returned while the halt was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-settled
	if !halted {
		t.Fatal("settle returned before the halt completed")
	}
}

func TestServiceDriverRejectsMisuse(t *testing.T) {
	cl, _, src := serviceTestbed(t, 60, trace.ArrivalConfig{})
	d, err := NewServiceDriver(DefaultConfig(), cl, src, &fifoScheduler{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(); err == nil {
		t.Error("Run accepted a service driver")
	}
	cl2, tr := testbed(t, 20, 10)
	bd, err := NewDriver(DefaultConfig(), cl2, tr, &fifoScheduler{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bd.RunService(context.Background(), simulation.Second); err == nil {
		t.Error("RunService accepted a batch driver")
	}
	if _, err := NewServiceDriver(DefaultConfig(), cl, nil, &fifoScheduler{}, 7); err == nil {
		t.Error("nil source accepted")
	}
}
