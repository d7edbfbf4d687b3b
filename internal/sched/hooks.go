package sched

import (
	"github.com/phoenix-sched/phoenix/internal/constraint"
	"github.com/phoenix-sched/phoenix/internal/simulation"
	"github.com/phoenix-sched/phoenix/internal/trace"
)

// CRVSource is implemented by schedulers that maintain their own CRV state
// (Phoenix's monitor). When telemetry is given a source, each sample
// additionally records the scheduler's view — whether its monitor
// considered the cluster contended and how many workers it marked
// congested — alongside the queue-derived CRV (Driver.QueueCRV), which is
// the same for every scheduler. The methods must be read-only.
type CRVSource interface {
	// CRVVector returns the scheduler's CRV as of its last refresh.
	CRVVector() constraint.Vector
	// CRVHot reports whether any dimension exceeded the scheduler's CRV
	// threshold at the last refresh.
	CRVHot() bool
	// CongestedWorkers reports how many workers the scheduler currently
	// marks congested.
	CongestedWorkers() int
}

// ShardCRVSource is implemented by CRV sources that additionally maintain
// per-shard CRV state (the sharded meta-scheduler, and wrappers that
// forward one). When telemetry's CRV source also implements it with a
// nonzero shard count, each sample records every shard's maximum CRV
// element and the CSV gains one crv_max_shard<k> column per shard — the
// per-partition contention view a global max would hide. The methods must
// be read-only.
type ShardCRVSource interface {
	// NumShards reports the (fixed) shard count; zero means no shards.
	NumShards() int
	// ShardCRV returns shard k's CRV as of its monitor's last refresh.
	ShardCRV(k int) constraint.Vector
}

// GangSource is implemented by schedulers that queue gang jobs for
// all-or-nothing co-placement (the gang policy plug-in, and wrappers that
// forward a stacked one). When telemetry is given a source, each sample
// records how many gangs were waiting on reservations — the gauge behind
// the gangs_waiting CSV column. The method must be read-only.
type GangSource interface {
	// GangsWaiting reports how many gang jobs are queued for reservations.
	GangsWaiting() int
}

// Hooks is one scheduler's optional driver hooks and read-only telemetry
// views, resolved once by HooksOf. A nil field means the scheduler does
// not implement that interface. The driver and the sharded wrapper check
// the fields, so an absent hook costs one nil check per event; the
// methods forward to the fields and are nil-safe, so a wrapper that embeds
// Hooks implements every hook and view and delegates each to its inner
// scheduler without being able to drop one.
type Hooks struct {
	// Heartbeat runs periodic monitoring (Phoenix's CRV monitor).
	Heartbeat HeartbeatHandler
	// Idle reacts to a worker going idle (Hawk's work stealing).
	Idle IdleHandler
	// Completion reacts to task completions.
	Completion CompletionHandler
	// Sticky hands a worker its next task of the same job (Eagle's sticky
	// batch probing).
	Sticky StickyProvider
	// Start observes task starts (Phoenix's estimate check).
	Start StartObserver
	// CRV is the scheduler's own CRV view.
	CRV CRVSource
	// Shards is the scheduler's per-shard CRV view.
	Shards ShardCRVSource
	// Gang is the scheduler's waiting-gang gauge.
	Gang GangSource
}

// HooksOf resolves s's optional hooks and views. It is the one place the
// optional interfaces are type-asserted: the driver, the policy and
// sharded wrappers, and run assembly all go through it.
func HooksOf(s Scheduler) Hooks {
	var h Hooks
	h.Heartbeat, _ = s.(HeartbeatHandler)
	h.Idle, _ = s.(IdleHandler)
	h.Completion, _ = s.(CompletionHandler)
	h.Sticky, _ = s.(StickyProvider)
	h.Start, _ = s.(StartObserver)
	h.CRV, _ = s.(CRVSource)
	h.Shards, _ = s.(ShardCRVSource)
	h.Gang, _ = s.(GangSource)
	return h
}

// OnHeartbeat forwards to the heartbeat hook, if any.
func (h *Hooks) OnHeartbeat(d *Driver, now simulation.Time) {
	if h.Heartbeat != nil {
		h.Heartbeat.OnHeartbeat(d, now)
	}
}

// OnWorkerIdle forwards to the idle hook, if any.
func (h *Hooks) OnWorkerIdle(d *Driver, w *Worker) {
	if h.Idle != nil {
		h.Idle.OnWorkerIdle(d, w)
	}
}

// OnTaskComplete forwards to the completion hook, if any.
func (h *Hooks) OnTaskComplete(d *Driver, w *Worker, js *JobState, t *trace.Task) {
	if h.Completion != nil {
		h.Completion.OnTaskComplete(d, w, js, t)
	}
}

// NextSticky forwards to the sticky provider; without one it yields nil
// (no sticky start).
func (h *Hooks) NextSticky(d *Driver, w *Worker, js *JobState) *trace.Task {
	if h.Sticky != nil {
		return h.Sticky.NextSticky(d, w, js)
	}
	return nil
}

// OnTaskStart forwards to the start observer, if any.
func (h *Hooks) OnTaskStart(d *Driver, w *Worker, e *Entry, wait simulation.Time) {
	if h.Start != nil {
		h.Start.OnTaskStart(d, w, e, wait)
	}
}

// CRVVector forwards the CRV view (zero without one).
func (h *Hooks) CRVVector() constraint.Vector {
	if h.CRV != nil {
		return h.CRV.CRVVector()
	}
	return constraint.Vector{}
}

// CRVHot forwards the CRV trigger state (false without a CRV view).
func (h *Hooks) CRVHot() bool { return h.CRV != nil && h.CRV.CRVHot() }

// CongestedWorkers forwards the congestion count (zero without a CRV view).
func (h *Hooks) CongestedWorkers() int {
	if h.CRV != nil {
		return h.CRV.CongestedWorkers()
	}
	return 0
}

// NumShards forwards the shard count (zero without a per-shard view).
func (h *Hooks) NumShards() int {
	if h.Shards != nil {
		return h.Shards.NumShards()
	}
	return 0
}

// ShardCRV forwards shard k's CRV (zero without a per-shard view).
func (h *Hooks) ShardCRV(k int) constraint.Vector {
	if h.Shards != nil {
		return h.Shards.ShardCRV(k)
	}
	return constraint.Vector{}
}

// GangsWaiting forwards the waiting-gang gauge (zero without one).
func (h *Hooks) GangsWaiting() int {
	if h.Gang != nil {
		return h.Gang.GangsWaiting()
	}
	return 0
}
