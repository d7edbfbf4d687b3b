package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/phoenix-sched/phoenix/internal/constraint"
	"github.com/phoenix-sched/phoenix/internal/faults"
	"github.com/phoenix-sched/phoenix/internal/trace"
)

// The determinism battery: every registered experiment must produce
// byte-identical CSV rows at -jobs 8 and -jobs 1. Run under -race this also
// shakes out unsynchronized access to the shared cluster and MatchCache.
// The jobs=8 run carries a PoolStats, which must record busy time.
func TestJobsDeterminismEveryExperiment(t *testing.T) {
	base := tinyOptions()
	base.Seeds = 2 // >1 so per-seed units genuinely interleave
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			seq := base
			seq.Parallelism = 1
			seqRep, err := Run(id, seq)
			if err != nil {
				t.Fatalf("sequential Run(%s): %v", id, err)
			}

			par := base
			par.Parallelism = 8
			par.Stats = &PoolStats{}
			parRep, err := Run(id, par)
			if err != nil {
				t.Fatalf("parallel Run(%s): %v", id, err)
			}

			if got, want := parRep.CSV(), seqRep.CSV(); got != want {
				t.Errorf("jobs=8 CSV differs from jobs=1:\n--- jobs=1 ---\n%s--- jobs=8 ---\n%s", want, got)
			}
			if par.Stats.Busy() <= 0 {
				t.Error("PoolStats recorded no busy time")
			}
		})
	}
}

// Eight concurrent seeds of a rack-outage fault campaign share one cluster
// — and therefore one MatchCache — yet every per-seed run digest must match
// a sequential run of the same seeds: interning is idempotent, so cache
// races may only change who computes a satisfying set, never its bits.
func TestJobsDeterminismSharedMatchCacheFaultCampaign(t *testing.T) {
	const seeds = 8
	o := tinyOptions()
	e, err := newEnv(o, "google")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := e.clusterAt(1.0)
	if err != nil {
		t.Fatal(err)
	}
	dim := constraint.DimPlatform.String()
	val := cl.Machine(0).Attrs.Get(constraint.DimPlatform)

	campaign := func(jobs int) []uint64 {
		t.Helper()
		ro := o
		ro.Parallelism = jobs
		digests := make([]uint64, seeds)
		err := ro.runUnits(seeds, func(ctx context.Context, i int) error {
			tr, err := e.trace(i)
			if err != nil {
				return err
			}
			spec := ro.unit(cl, tr, SchedPhoenix, i)
			horizon := tr.Jobs[len(tr.Jobs)-1].Arrival.Seconds()
			spec.Faults = faults.RackOutage(dim, val, 0.25*horizon, 0.25*horizon)
			res, err := runSpec(ctx, spec)
			if err != nil {
				return err
			}
			digests[i] = res.Collector.Digest()
			return nil
		})
		if err != nil {
			t.Fatalf("jobs=%d campaign: %v", jobs, err)
		}
		return digests
	}

	sequential := campaign(1)
	concurrent := campaign(seeds)
	for i := range sequential {
		if sequential[i] != concurrent[i] {
			t.Errorf("seed %d: digest %016x sequential vs %016x concurrent", i, sequential[i], concurrent[i])
		}
	}
}

// When two units fail in the same pool run, the runner must always report
// the lowest-indexed one, whatever order the workers happen to finish in.
func TestRunnerFirstErrorDeterministic(t *testing.T) {
	errLow := errors.New("unit 2 exploded")
	errHigh := errors.New("unit 6 exploded")
	o := tinyOptions()
	o.Parallelism = 8
	for trial := 0; trial < 100; trial++ {
		err := o.runUnits(16, func(ctx context.Context, i int) error {
			switch i {
			case 2:
				return errLow
			case 6:
				return errHigh
			}
			return nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("trial %d: runner reported %v, want the lowest-indexed failure %v", trial, err, errLow)
		}
	}
}

// A failing unit cancels its in-flight siblings (their contexts fire) and
// the queued remainder never starts. The second unit blocks on its context
// so the test deadlocks — and times out — if cancellation doesn't reach it.
func TestRunnerErrorCancelsSiblings(t *testing.T) {
	errBoom := errors.New("boom")
	o := tinyOptions()
	o.Parallelism = 2
	started := make(chan struct{})
	var executed atomic.Int64
	const n = 64
	err := o.runUnits(n, func(ctx context.Context, i int) error {
		executed.Add(1)
		switch i {
		case 0:
			<-started // guarantee unit 1 is in flight before failing
			return errBoom
		case 1:
			close(started)
			<-ctx.Done() // unblocked only by unit 0's failure
			return ctx.Err()
		default:
			return nil
		}
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("runner reported %v, want %v (cancellation casualties must never win)", err, errBoom)
	}
	if got := executed.Load(); got > 2 {
		t.Errorf("%d of %d units executed after the first failure; queued units must be skipped", got, n)
	}
}

// The failure hook lets error-path tests inject a mid-sweep unit failure
// into a real experiment: the experiment must surface exactly that error.
// Serial (not t.Parallel): the hook is package-global.
func TestRunnerErrorPropagatesThroughExperiment(t *testing.T) {
	errInjected := errors.New("injected mid-sweep failure")
	unitFailureHook = func(unit int) error {
		if unit == 1 {
			return errInjected
		}
		return nil
	}
	defer func() { unitFailureHook = nil }()

	o := tinyOptions()
	o.Seeds = 2
	o.Parallelism = 4
	if _, err := Run("fig7c", o); !errors.Is(err, errInjected) {
		t.Fatalf("Run(fig7c) = %v, want the injected unit error", err)
	}
}

// Assembly.Run must refuse to start under a cancelled context and must map
// a mid-run halt back to the context's error, never leaking ErrHalted.
func TestRunDriverHonorsCancellation(t *testing.T) {
	o := tinyOptions()
	e, err := newEnv(o, "yahoo")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := e.clusterAt(1.0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := e.trace(0)
	if err != nil {
		t.Fatal(err)
	}
	newRun := func() *Assembly {
		a, err := Build(o.unit(cl, tr, SchedSparrow, 0))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := newRun().Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Assembly.Run = %v, want context.Canceled", err)
	}

	// Mid-run cancellation is timing-dependent: the run either completes
	// before the cancel lands (nil) or is halted and must report the
	// context's error — anything else is a leak of simulation.ErrHalted.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel2()
	}()
	if _, err := newRun().Run(ctx2); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancelled Assembly.Run = %v, want nil or context.Canceled", err)
	}
	cancel2()

	// Service runs: a pre-cancelled context never starts, and a cancel
	// during an unbounded run drains it and returns the drained result
	// together with the context's error.
	newService := func() *Assembly {
		src, err := trace.NewArrivalSource(e.cfg, trace.ArrivalConfig{Kind: trace.ArrivalPoisson}, e.big, 1000)
		if err != nil {
			t.Fatal(err)
		}
		spec := o.unit(cl, nil, SchedSparrow, 0)
		spec.Source = src
		spec.Validate = true
		a, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	if sr, err := newService().RunService(ctx, 0); sr != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Assembly.RunService = %v, %v; want nil, context.Canceled", sr, err)
	}
	ctx3, cancel3 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel3()
	}()
	sr, err := newService().RunService(ctx3, 0)
	if !errors.Is(err, context.Canceled) || sr == nil || !sr.Cancelled {
		t.Fatalf("cancelled unbounded Assembly.RunService = %+v, %v; want a drained result and context.Canceled", sr, err)
	}
}

// BenchmarkRunnerJobs measures the worker pool's scaling over a fixed unit
// set (Phoenix and Eagle-C on the Google profile, four seeds each) at 1, 2,
// 4, and 8 workers. On a multi-core box ns/op should drop roughly with the
// worker count until cores run out.
func BenchmarkRunnerJobs(b *testing.B) {
	o := DefaultOptions()
	o.Scale = 0.05
	o.Seeds = 4
	e, err := newEnv(o, "google")
	if err != nil {
		b.Fatal(err)
	}
	cl, err := e.clusterAt(1.0)
	if err != nil {
		b.Fatal(err)
	}
	scheds := []string{SchedPhoenix, SchedEagle}
	n := len(scheds) * o.Seeds
	for _, jobs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			ro := o
			ro.Parallelism = jobs
			for i := 0; i < b.N; i++ {
				err := ro.runUnits(n, func(ctx context.Context, u int) error {
					si, rep := u%len(scheds), u/len(scheds)
					tr, err := e.trace(rep)
					if err != nil {
						return err
					}
					_, err = runSpec(ctx, ro.unit(cl, tr, scheds[si], rep))
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
