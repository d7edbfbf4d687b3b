package sched

import (
	"math"

	"github.com/phoenix-sched/phoenix/internal/cluster"
	"github.com/phoenix-sched/phoenix/internal/queueing"
	"github.com/phoenix-sched/phoenix/internal/simulation"
	"github.com/phoenix-sched/phoenix/internal/trace"
)

// Entry is one element of a worker queue: either a bound task (early
// binding — centralized placement writes the task itself into the queue) or
// a probe (late binding — a proxy that claims a task from its job only when
// it reaches a free slot, so the job keeps the flexibility to run wherever
// capacity appears first).
type Entry struct {
	// Job is the owning job's state.
	Job *JobState
	// Task is non-nil for bound tasks and nil for probes.
	Task *trace.Task
	// Enqueued is when the entry entered this queue.
	Enqueued simulation.Time
	// Bypassed counts how many times reordering served a later entry
	// first; at the slack threshold the entry becomes non-bypassable
	// (the starvation guard of Eagle-C and Phoenix).
	Bypassed int
}

// EstDur is the entry's estimated service time (the job's estimate).
func (e *Entry) EstDur() simulation.Time { return e.Job.EstDur }

// IsProbe reports whether the entry is a late-binding probe.
func (e *Entry) IsProbe() bool { return e.Task == nil }

// Worker is one single-slot execution node with a queue (paper §V-A: "at
// each worker node, there is one slot for execution and a queue for tasks
// waiting to be executed").
type Worker struct {
	// ID equals the machine ID.
	ID int
	// Machine is the hardware description.
	Machine *cluster.Machine

	// queue holds waiting entries in arrival order, so Enqueued never
	// decreases along it (push only appends, at the arrival instant);
	// policies select by index so that bypass accounting (who overtook
	// whom) stays exact.
	queue []*Entry
	// running is the entry occupying the slot, nil when idle.
	running *Entry
	// runningTask is the claimed task behind running.
	runningTask *trace.Task
	// runningStarted is when the current execution attempt began.
	runningStarted simulation.Time
	// completion is the pending completion event (cancelled on failure).
	completion *simulation.ScheduledEvent
	// failed marks a worker that is down: it keeps its queue but
	// dispatches nothing until repair.
	failed bool
	// waitStale marks soa.waitEst[ID], the memoized P-K estimate, for
	// recompute. The driver sets it whenever it feeds the estimator
	// (admit, completeTask), the only time the estimate can change.
	waitStale bool
	// queuedProbes counts the late-binding probes among queue's entries,
	// kept by push and deleteAt.
	queuedProbes int32
	// slowFactor is the fault-injected multiplicative service-time factor
	// (Driver.SetServiceFactor); the zero value means nominal speed. Kept
	// private so every change flows through the driver and notifies
	// FaultObservers.
	slowFactor float64

	// soa points to the driver-owned struct-of-arrays load state; this
	// worker's backlog and running-end live in soa.backlog[ID] and
	// soa.runningEnds[ID] so placement scans can stream all workers'
	// signals contiguously. Accessors below keep the per-worker view.
	soa *workerSoA
	// longCount tracks long-job entries placed here (queued, in flight,
	// or running); Eagle's succinct state sharing flags workers with
	// longCount > 0.
	longCount int

	// Estimator feeds the Pollaczek–Khinchin waiting-time estimate for
	// this worker (Phoenix's Estimate_Waiting_Time). Only the driver may
	// feed it: WaitEstimate's memo relies on seeing every observation.
	Estimator *queueing.Estimator
}

// WaitEstimate reports the worker's P-K expected waiting time and whether
// its queue is saturated: Estimator.EstimateWait, memoized until the driver
// next feeds the estimator, so every reader between two arrivals or
// completions shares one computation.
func (w *Worker) WaitEstimate() (wait float64, saturated bool) {
	est := &w.soa.waitEst[w.ID]
	if w.waitStale {
		// EstimateWait reports saturation exactly when the wait is +Inf.
		*est, _ = w.Estimator.EstimateWait()
		w.waitStale = false
	}
	return *est, math.IsInf(*est, 1)
}

// QueueLen reports the number of waiting entries.
func (w *Worker) QueueLen() int { return len(w.queue) }

// QueuedProbes reports how many of the waiting entries are probes.
func (w *Worker) QueuedProbes() int { return int(w.queuedProbes) }

// Queue exposes the waiting entries in arrival order, hence in
// non-decreasing Enqueued order. Policies may read entries but must not add
// or remove; mutation goes through the driver.
func (w *Worker) Queue() []*Entry { return w.queue }

// Idle reports whether the slot is free.
func (w *Worker) Idle() bool { return w.running == nil }

// Running returns the entry occupying the slot, nil when idle.
func (w *Worker) Running() *Entry { return w.running }

// RunningEnds reports the completion time of the running task (only
// meaningful when not idle).
func (w *Worker) RunningEnds() simulation.Time { return w.soa.runningEnds[w.ID] }

// HasLongJob reports whether any long-job work is placed here.
func (w *Worker) HasLongJob() bool { return w.longCount > 0 }

// Failed reports whether the worker is currently down.
func (w *Worker) Failed() bool { return w.failed }

// ServiceFactor reports the worker's current service-time factor; 1 means
// nominal speed, above 1 an injected slowdown.
func (w *Worker) ServiceFactor() float64 {
	if w.slowFactor == 0 {
		return 1
	}
	return w.slowFactor
}

// Slowed reports whether an injected slowdown is active on this worker.
func (w *Worker) Slowed() bool { return w.slowFactor != 0 && w.slowFactor != 1 }

// Backlog reports the estimated queued/in-flight work plus the running
// entry's remaining time — the load signal used for least-loaded placement.
// An idle slot carries the idleEnds sentinel, so no busy check is needed.
func (w *Worker) Backlog(now simulation.Time) simulation.Time {
	return w.soa.loadAt(w.ID, now)
}

// QueuedWork reports only the queued/in-flight estimated work.
func (w *Worker) QueuedWork() simulation.Time { return w.soa.backlog[w.ID] }

// push appends an entry to the queue. Backlog was already reserved at
// placement time.
func (w *Worker) push(e *Entry) {
	w.queue = append(w.queue, e)
	if e.IsProbe() {
		w.queuedProbes++
	}
	w.soa.queueEpoch++
}

// removeAt removes and returns the queue entry at index i, releasing its
// backlog and charging one bypass to every earlier entry when i > 0.
func (w *Worker) removeAt(i int) *Entry {
	e := w.queue[i]
	for j := 0; j < i; j++ {
		w.queue[j].Bypassed++
	}
	w.deleteAt(i)
	w.soa.backlog[w.ID] -= e.EstDur()
	return e
}

// stealAt removes the entry at index i without bypass accounting (the
// entry is migrating to another worker, not being overtaken).
func (w *Worker) stealAt(i int) *Entry {
	e := w.queue[i]
	w.deleteAt(i)
	w.soa.backlog[w.ID] -= e.EstDur()
	return e
}

// discardAt removes the entry at index i without bypass accounting: a stale
// probe evaporating is not service, so nobody was served ahead of the
// earlier entries and charging them a bypass would push them toward the
// starvation cap for nothing.
func (w *Worker) discardAt(i int) *Entry { return w.stealAt(i) }

func (w *Worker) deleteAt(i int) {
	w.soa.queueEpoch++
	if w.queue[i].IsProbe() {
		w.queuedProbes--
	}
	copy(w.queue[i:], w.queue[i+1:])
	w.queue[len(w.queue)-1] = nil
	w.queue = w.queue[:len(w.queue)-1]
}
