package experiments

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the experiment runner's worker pool. Every experiment
// decomposes into independent (cluster, trace, scheduler, seed) work units;
// the pool executes them on a bounded set of workers (Options.Parallelism,
// the -jobs flag) and the experiment reassembles per-unit results in unit
// order, so the rendered tables, CSVs, figures, and run digests are
// byte-identical whatever the worker count. The rules that make that hold:
//
//   - Units are enumerated up front and dispatched in index order.
//   - Each unit owns result slot i of a caller-allocated slice; no unit
//     touches another unit's slot, so no lock ever orders two writers.
//   - Aggregation (pooling samples, averaging, rendering rows) happens
//     after the pool drains, sequentially, in unit-index order — float
//     accumulation order is fixed even though execution order is not.
//   - Randomness is per-unit: every simulation derives its streams from its
//     own (trace seed, driver seed) pair, never from shared state.
//   - The only shared mutable state is the cluster's MatchCache, whose
//     interning is idempotent: concurrent seeds may race to compute the
//     same satisfying set, but every winner is bit-identical.
//
// Errors cancel, deterministically. Each unit runs under its own context,
// cancelled only when a LOWER-indexed unit fails. On the first failure the
// pool cancels every in-flight unit above the failing index (halting their
// simulations between events via Driver.Halt) and skips queued units, which
// — because dispatch is in index order — all lie above it. In-flight units
// below the failing index (at most workers-1 of them) run to completion and
// may themselves fail and lower the mark. The pool therefore always reports
// the error of the lowest-indexed unit that genuinely failed, not whichever
// worker lost the race to a mutex; cancellation casualties are never
// selected as the cause.

// PoolStats accumulates work-unit execution statistics across every pool
// run issued under one Options value. The experiments CLI attaches a fresh
// PoolStats per experiment to print the wall-clock/speedup summary line:
// Busy sums the time workers spent inside units, so Busy/wall is the
// realized speedup over a sequential run of the same units.
type PoolStats struct {
	units atomic.Int64
	busy  atomic.Int64 // nanoseconds
}

// Units reports how many work units completed (successfully or not;
// skipped units are not counted).
func (s *PoolStats) Units() int64 { return s.units.Load() }

// Busy reports the summed execution time of all completed units — the
// wall-clock a sequential runner would have needed for the same work.
func (s *PoolStats) Busy() time.Duration { return time.Duration(s.busy.Load()) }

// add records one completed unit.
func (s *PoolStats) add(d time.Duration) {
	if s == nil {
		return
	}
	s.units.Add(1)
	s.busy.Add(int64(d))
}

// unitFailureHook, when non-nil, is consulted before every work unit and
// fails the unit with its return value. It is a test-only seam for the
// error-path battery (cancellation, deterministic first error); production
// code never sets it.
var unitFailureHook func(unit int) error

// runUnits executes fn(ctx, i) for every unit i in [0, n) on a bounded
// worker pool of o.parallelism() goroutines (capped at n), recording unit
// timings into o.Stats. See the file comment for the determinism and
// cancellation contract. fn must confine itself to unit i's result slot and
// must pass ctx down to the simulation (Assembly.Run or RunService) so an in-flight
// run is halted when a lower-indexed sibling fails.
func (o *Options) runUnits(n int, fn func(ctx context.Context, i int) error) error {
	workers := o.parallelism()
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}

	var (
		mu       sync.Mutex
		firstIdx = -1 // lowest-indexed failed unit so far, -1 = none
		firstErr error
		inflight = make(map[int]context.CancelFunc, workers)
	)
	// fail records unit i's genuine error if it lowers the mark, and
	// cancels every in-flight unit above the new mark.
	fail := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if firstIdx >= 0 && firstIdx <= i {
			return
		}
		firstIdx, firstErr = i, err
		for j, cancel := range inflight {
			if j > i {
				cancel()
			}
		}
	}
	// begin admits unit i: skipped when a lower-indexed unit has already
	// failed (queued units always lie above the mark, dispatch being in
	// index order), otherwise registered with its own cancelable context.
	begin := func(i int) (context.Context, bool) {
		mu.Lock()
		defer mu.Unlock()
		if firstIdx >= 0 && i > firstIdx {
			return nil, false
		}
		ctx, cancel := context.WithCancel(context.Background())
		inflight[i] = cancel
		return ctx, true
	}
	end := func(i int) {
		mu.Lock()
		cancel := inflight[i]
		delete(inflight, i)
		mu.Unlock()
		if cancel != nil {
			cancel() // release the context's resources
		}
	}

	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				ctx, ok := begin(i)
				if !ok {
					continue
				}
				start := time.Now()
				err := runHooked(ctx, i, fn)
				end(i)
				o.Stats.add(time.Since(start))
				if err == nil {
					continue
				}
				if errors.Is(err, context.Canceled) && ctx.Err() != nil {
					// A casualty of cancellation, not a cause: this unit's
					// context is only cancelled once a lower-indexed unit
					// has registered its own error.
					continue
				}
				fail(i, err)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return firstErr
}

// runHooked runs one unit, applying the test-only failure hook first.
func runHooked(ctx context.Context, i int, fn func(ctx context.Context, i int) error) error {
	if unitFailureHook != nil {
		if err := unitFailureHook(i); err != nil {
			return err
		}
	}
	return fn(ctx, i)
}
