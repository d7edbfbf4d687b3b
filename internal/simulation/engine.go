package simulation

import (
	"errors"
	"sync/atomic"
)

// ErrHalted is returned by Run variants when the engine was stopped with
// Halt before the event queue drained.
var ErrHalted = errors.New("simulation halted")

// EventFunc is the body of a scheduled event. It runs at its scheduled
// virtual time and may schedule further events.
type EventFunc func(now Time)

// eventState tracks a scheduled event through its lifecycle. Cancellation
// is lazy: a cancelled event stays in the calendar queue until the scan
// reaches its slot, so Cancel is O(1) instead of a heap repair.
type eventState uint8

const (
	evPending eventState = iota
	evFired
	evCancelled
)

// ScheduledEvent is a handle to a pending event, usable to cancel it.
type ScheduledEvent struct {
	at    Time
	seq   uint64
	fn    EventFunc
	state eventState
}

// At reports the virtual time the event is scheduled for.
func (e *ScheduledEvent) At() Time { return e.at }

// Canceled reports whether the event was removed by Cancel before firing.
// An event that already ran is not cancelled, no matter how often Cancel
// was called on it afterwards.
func (e *ScheduledEvent) Canceled() bool { return e.state == evCancelled }

// Engine is a single-threaded discrete-event simulation core. The zero
// value is not usable; construct with NewEngine.
//
// Engine is deliberately not safe for concurrent use: a simulation run is a
// sequential causal chain. Parallelism in the benchmark harness happens
// across independent Engine instances (one per run/seed), never within one.
// The sole cross-goroutine entry point is Halt, which the experiment
// runner's cancel-on-first-error path uses to stop in-flight sibling runs.
//
// Pending events live in a calendar queue (calqueue.go): O(1) amortized
// insert/pop at simulation event rates, with a sorted far-future overflow
// band and an automatic resize policy, preserving the exact
// (time, insertion-sequence) total order of the binary heap it replaced.
type Engine struct {
	queue     calQueue
	now       Time
	seq       uint64
	processed uint64
	halted    atomic.Bool
}

// NewEngine returns an empty engine at virtual time zero with the halt
// flag clear.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of events currently queued.
func (e *Engine) Pending() int { return e.queue.len() }

// Processed reports the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Schedule queues fn to run at absolute virtual time at. Scheduling in the
// past (at < Now) is a programming error and is clamped to Now so that
// causality is preserved; events at equal times run in insertion order.
func (e *Engine) Schedule(at Time, fn EventFunc) *ScheduledEvent {
	if at < e.now {
		at = e.now
	}
	ev := &ScheduledEvent{at: at, seq: e.seq, fn: fn}
	e.seq++
	e.queue.insert(ev)
	return ev
}

// ScheduleAfter queues fn to run delay units after the current time.
func (e *Engine) ScheduleAfter(delay Time, fn EventFunc) *ScheduledEvent {
	return e.Schedule(e.now+delay, fn)
}

// Every arranges for fn to run at Now()+interval and then every interval
// of virtual time for as long as fn returns true. The interval must be
// positive. Each firing is an ordinary event: it obeys the same
// insertion-order tie-breaking as everything else, so a periodic passive
// task (telemetry sampling, progress reporting) never perturbs the
// ordering of the events already scheduled.
func (e *Engine) Every(interval Time, fn func(now Time) bool) error {
	if interval <= 0 {
		return errors.New("simulation: Every interval must be positive")
	}
	var arm EventFunc
	arm = func(now Time) {
		if fn(now) {
			e.ScheduleAfter(interval, arm)
		}
	}
	e.ScheduleAfter(interval, arm)
	return nil
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op: it reports false and — for a fired
// event — does not mark the handle cancelled, so Canceled never reports
// true for an event that actually ran.
func (e *Engine) Cancel(ev *ScheduledEvent) bool {
	if ev == nil || ev.state != evPending {
		return false
	}
	ev.state = evCancelled
	e.queue.cancel()
	return true
}

// Halt stops the current Run after the in-flight event returns. Unlike
// every other Engine method, Halt is safe to call from another goroutine:
// it only raises an atomic flag that the run loop polls between events, so
// an external canceller (a context watcher, the experiment runner) can stop
// a simulation without touching its state.
//
// Halt is sticky: a halt raised before a Run starts — the experiment
// runner's and service driver's cancel paths can land one between driver
// construction and the run loop — makes that Run return ErrHalted
// immediately instead of being silently dropped. The flag is consumed when
// a Run variant observes it and returns ErrHalted (and is clear in a new
// engine), so the following Run proceeds normally.
func (e *Engine) Halt() { e.halted.Store(true) }

// ClearHalt drops a pending halt without running. A caller that has
// already observed the halt it asked for — a drain re-entering Run after a
// cancel — clears any duplicate that landed meanwhile, so the duplicate
// cannot stop the next Run.
func (e *Engine) ClearHalt() { e.halted.Store(false) }

// haltConsumed reports whether a pending halt was observed, consuming it.
func (e *Engine) haltConsumed() bool {
	if !e.halted.Load() {
		return false
	}
	e.halted.Store(false)
	return true
}

// Step executes the single earliest pending event. It reports false when
// the queue is empty.
func (e *Engine) Step() bool {
	ev := e.queue.pop()
	if ev == nil {
		return false
	}
	ev.state = evFired
	e.now = ev.at
	e.processed++
	ev.fn(e.now)
	return true
}

// Run executes events until the queue is empty or Halt is called. It
// returns ErrHalted in the latter case.
func (e *Engine) Run() error {
	return e.RunUntil(MaxTime)
}

// RunUntil executes events with timestamps <= deadline. On return the clock
// is at the last executed event (or at deadline if the next event lies
// beyond it). Returns ErrHalted — consuming the halt flag — if Halt was
// called, including before the run started (see Halt on stickiness).
func (e *Engine) RunUntil(deadline Time) error {
	for {
		if e.haltConsumed() {
			return ErrHalted
		}
		next := e.queue.peek()
		if next == nil {
			return nil
		}
		if next.at > deadline {
			e.now = deadline
			return nil
		}
		e.Step()
	}
}
