// Package sched is the scheduling framework every scheduler in this
// repository plugs into: the trace-driven simulation driver, the worker
// model (one execution slot plus one reorderable queue per worker, as in
// the Eagle/Sparrow simulators the paper builds on), probe-based late
// binding, queue policies (FIFO, SRPT-with-slack), and the shared
// centralized placer hybrid schedulers use for long jobs.
//
// A Scheduler receives job submissions and decides where to enqueue work;
// the driver owns everything else — virtual time, task execution, metric
// collection. Optional interfaces (HeartbeatHandler, IdleHandler,
// CompletionHandler, StickyProvider, StartObserver) let schedulers hook
// the mechanisms they need without every scheduler paying for all of them;
// HooksOf resolves them, with the read-only telemetry views, in one place.
package sched

import (
	"fmt"

	"github.com/phoenix-sched/phoenix/internal/simulation"
	"github.com/phoenix-sched/phoenix/internal/trace"
)

// Config carries the simulation parameters shared by all schedulers,
// defaulting to the paper's settings.
type Config struct {
	// NetworkDelay is one message latency (the paper fixes the RTT to the
	// CRV node monitor at 0.5 ms and treats other control messages the
	// same way).
	NetworkDelay simulation.Time
	// ProbeRatio is the number of probes placed per task of a short job
	// (2 in the paper, the mis-estimation vs redundancy sweet spot).
	ProbeRatio int
	// SlackThreshold is the number of times a queued entry may be bypassed
	// by reordering before it becomes non-bypassable (5 in the paper).
	SlackThreshold int
	// Heartbeat is the monitor synchronization interval (9 s in the
	// paper).
	Heartbeat simulation.Time
	// ServiceWindow and ArrivalWindow size the per-worker waiting-time
	// estimator's sliding windows.
	ServiceWindow int
	ArrivalWindow int

	// FailureRatePerHour injects fail-stop worker failures at the given
	// expected rate per worker per hour (0 disables). A failed worker
	// keeps its queue but dispatches nothing; its running task restarts
	// from scratch once the worker recovers — the fault-tolerance setting
	// that motivates the paper's spread placement constraints.
	FailureRatePerHour float64
	// RepairDelay is how long a failed worker stays down.
	RepairDelay simulation.Time
}

// DefaultConfig returns the paper's parameter settings.
func DefaultConfig() Config {
	return Config{
		NetworkDelay:   500 * simulation.Microsecond,
		ProbeRatio:     2,
		SlackThreshold: 5,
		Heartbeat:      9 * simulation.Second,
		ServiceWindow:  32,
		ArrivalWindow:  32,
		RepairDelay:    60 * simulation.Second,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.NetworkDelay < 0:
		return fmt.Errorf("sched: negative network delay")
	case c.ProbeRatio < 1:
		return fmt.Errorf("sched: probe ratio %d must be >= 1", c.ProbeRatio)
	case c.SlackThreshold < 0:
		return fmt.Errorf("sched: negative slack threshold")
	case c.Heartbeat <= 0:
		return fmt.Errorf("sched: heartbeat must be positive")
	case c.ServiceWindow < 1:
		return fmt.Errorf("sched: service window %d must be >= 1", c.ServiceWindow)
	case c.ArrivalWindow < 2:
		return fmt.Errorf("sched: arrival window %d must be >= 2", c.ArrivalWindow)
	case c.FailureRatePerHour < 0:
		return fmt.Errorf("sched: negative failure rate")
	case c.FailureRatePerHour > 0 && c.RepairDelay <= 0:
		return fmt.Errorf("sched: repair delay must be positive when failures are enabled")
	}
	return nil
}

// Scheduler is the interface every scheduling policy implements.
type Scheduler interface {
	// Name identifies the scheduler in results ("phoenix", "eagle-c", ...).
	Name() string
	// Init is called once before the run starts.
	Init(d *Driver) error
	// SubmitJob is called at each job's arrival time.
	SubmitJob(d *Driver, js *JobState)
}

// HeartbeatHandler is implemented by schedulers that run periodic
// monitoring (Phoenix's CRV monitor).
type HeartbeatHandler interface {
	OnHeartbeat(d *Driver, now simulation.Time)
}

// IdleHandler is implemented by schedulers that react to a worker going
// idle with an empty queue (Hawk's work stealing).
type IdleHandler interface {
	OnWorkerIdle(d *Driver, w *Worker)
}

// CompletionHandler is implemented by schedulers that react to task
// completions.
type CompletionHandler interface {
	OnTaskComplete(d *Driver, w *Worker, js *JobState, t *trace.Task)
}

// StickyProvider is implemented by schedulers using Eagle's Sticky Batch
// Probing: after a worker finishes a task, the scheduler may hand it
// another task of the same job directly, skipping the queue.
type StickyProvider interface {
	NextSticky(d *Driver, w *Worker, js *JobState) *trace.Task
}

// StartObserver is implemented by schedulers that want to observe task
// starts — e.g. to validate their waiting-time estimates against the wait
// each entry actually experienced in this worker's queue.
type StartObserver interface {
	// OnTaskStart fires when w begins executing an entry; wait is the
	// time the entry spent in w's queue.
	OnTaskStart(d *Driver, w *Worker, e *Entry, wait simulation.Time)
}
