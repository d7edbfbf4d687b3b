// Package sharded implements the sharded shared-state meta-scheduler: it
// partitions the cluster into K shards (cluster.ShardPlan) and runs one
// independent instance of any bundled scheduler per shard, following
// Arktos' global-scheduler design. Jobs route to the shard holding the
// most satisfying machines (conflict-aware distribution); each shard
// instance schedules against the driver's shard-scoped view, and
// cross-shard placement races are resolved by the driver's optimistic
// commit layer (sched.SetSharding), which charges conflicting placements a
// retry round-trip and counts them in the digest-excluded CommitConflicts
// metric.
//
// At shard count 1 the wrapper is a pure pass-through — it never installs
// a shard plan, so every driver code path, random draw, and event is
// identical to running the inner scheduler directly, and same-seed run
// digests are byte-identical.
package sharded

import (
	"fmt"

	"github.com/phoenix-sched/phoenix/internal/cluster"
	"github.com/phoenix-sched/phoenix/internal/constraint"
	"github.com/phoenix-sched/phoenix/internal/sched"
	"github.com/phoenix-sched/phoenix/internal/simulation"
	"github.com/phoenix-sched/phoenix/internal/trace"
)

func init() {
	sched.Register("sharded", func() (sched.Scheduler, error) { return New("phoenix", 4) })
}

// Scheduler is the sharded meta-scheduler: K instances of an inner
// scheduler, one per shard, behind the sched.Scheduler interface. It
// implements every optional driver interface and delegates each hook to
// the owning shard's instance when that instance implements it; the
// telemetry views aggregate over the instances.
type Scheduler struct {
	inner string
	insts []sched.Scheduler

	// hooks are each instance's optional hooks and views, resolved once
	// at construction (sched.HooksOf).
	hooks []sched.Hooks

	plan *cluster.ShardPlan
	// rr round-robins unconstrained (and unsatisfiable) jobs over shards.
	rr int
}

// New builds a sharded wrapper around the registered scheduler named
// inner, constructing one fresh instance per shard through the registry.
func New(inner string, shards int) (*Scheduler, error) {
	return NewWith(inner, shards, func() (sched.Scheduler, error) { return sched.NewByName(inner) })
}

// NewWith builds a sharded wrapper from an explicit factory, for inner
// schedulers that need non-default options. The name is only cosmetic
// (Name()); the factory is called once per shard.
func NewWith(inner string, shards int, f sched.Factory) (*Scheduler, error) {
	if shards < 1 {
		return nil, fmt.Errorf("sharded: shard count %d < 1", shards)
	}
	s := &Scheduler{
		inner: inner,
		insts: make([]sched.Scheduler, shards),
		hooks: make([]sched.Hooks, shards),
	}
	for k := range s.insts {
		inst, err := f()
		if err != nil {
			return nil, fmt.Errorf("sharded: shard %d: %w", k, err)
		}
		s.insts[k] = inst
		s.hooks[k] = sched.HooksOf(inst)
	}
	return s, nil
}

// Name identifies the wrapper and its configuration, e.g.
// "sharded(phoenix x4)".
func (s *Scheduler) Name() string {
	return fmt.Sprintf("sharded(%s x%d)", s.inner, len(s.insts))
}

// NumShards reports the configured shard count.
func (s *Scheduler) NumShards() int { return len(s.insts) }

// sharded reports whether the wrapper actually shards (count > 1); at one
// shard it stays a pure pass-through and never touches the driver's
// sharding machinery.
func (s *Scheduler) sharded() bool { return len(s.insts) > 1 }

// Init partitions the cluster, installs the shard plan on the driver, and
// initializes each shard's instance inside its shard scope — so an inner
// Init that sets queue policies or scans workers sees only its own shard.
func (s *Scheduler) Init(d *sched.Driver) error {
	if !s.sharded() {
		return s.insts[0].Init(d)
	}
	plan, err := cluster.NewShardPlan(d.Cluster(), len(s.insts))
	if err != nil {
		return fmt.Errorf("sharded: %w", err)
	}
	if err := d.SetSharding(plan); err != nil {
		return fmt.Errorf("sharded: %w", err)
	}
	s.plan = plan
	for k, inst := range s.insts {
		d.EnterShard(k)
		err := inst.Init(d)
		d.LeaveShard()
		if err != nil {
			return fmt.Errorf("sharded: shard %d init: %w", k, err)
		}
	}
	return nil
}

// SubmitJob routes the job to a shard and submits it there. Constrained
// jobs go where their satisfying supply is largest (ShardPlan.Route);
// unconstrained jobs — and constrained ones no shard can satisfy —
// round-robin over shards for load balance.
func (s *Scheduler) SubmitJob(d *sched.Driver, js *sched.JobState) {
	if !s.sharded() {
		s.insts[0].SubmitJob(d, js)
		return
	}
	k := -1
	if len(js.Constraints) > 0 {
		k = s.plan.Route(js.Constraints)
	}
	if k < 0 {
		k = s.rr % len(s.insts)
		s.rr++
	}
	d.EnterShard(k)
	s.insts[k].SubmitJob(d, js)
	d.LeaveShard()
}

// OnHeartbeat first syncs every shard's shared-state snapshot (the
// periodic view refresh of the optimistic-commit protocol), then delegates
// to each shard instance that handles heartbeats, in shard order.
func (s *Scheduler) OnHeartbeat(d *sched.Driver, now simulation.Time) {
	if !s.sharded() {
		s.hooks[0].OnHeartbeat(d, now)
		return
	}
	for k := range s.insts {
		d.SyncShardView(k)
	}
	for k := range s.hooks {
		h := s.hooks[k].Heartbeat
		if h == nil {
			continue
		}
		d.EnterShard(k)
		h.OnHeartbeat(d, now)
		d.LeaveShard()
	}
}

// OnWorkerIdle delegates to the instance owning w's shard.
func (s *Scheduler) OnWorkerIdle(d *sched.Driver, w *sched.Worker) {
	k := s.shardOf(w)
	if s.hooks[k].Idle == nil {
		return
	}
	s.enter(d, k)
	s.hooks[k].Idle.OnWorkerIdle(d, w)
	s.leave(d)
}

// OnTaskComplete delegates to the instance owning w's shard.
func (s *Scheduler) OnTaskComplete(d *sched.Driver, w *sched.Worker, js *sched.JobState, t *trace.Task) {
	k := s.shardOf(w)
	if s.hooks[k].Completion == nil {
		return
	}
	s.enter(d, k)
	s.hooks[k].Completion.OnTaskComplete(d, w, js, t)
	s.leave(d)
}

// NextSticky delegates to the instance owning w's shard; inner schedulers
// without sticky batching yield nil (no sticky start).
func (s *Scheduler) NextSticky(d *sched.Driver, w *sched.Worker, js *sched.JobState) *trace.Task {
	k := s.shardOf(w)
	if s.hooks[k].Sticky == nil {
		return nil
	}
	s.enter(d, k)
	t := s.hooks[k].Sticky.NextSticky(d, w, js)
	s.leave(d)
	return t
}

// OnTaskStart delegates to the instance owning w's shard.
func (s *Scheduler) OnTaskStart(d *sched.Driver, w *sched.Worker, e *sched.Entry, wait simulation.Time) {
	k := s.shardOf(w)
	if s.hooks[k].Start == nil {
		return
	}
	s.enter(d, k)
	s.hooks[k].Start.OnTaskStart(d, w, e, wait)
	s.leave(d)
}

// shardOf maps a worker to its owning shard (always 0 unsharded).
func (s *Scheduler) shardOf(w *sched.Worker) int {
	if !s.sharded() {
		return 0
	}
	return s.plan.ShardOf(w.ID)
}

// enter opens shard k's scope when actually sharded; the single-shard
// pass-through must not touch the driver's shard machinery.
func (s *Scheduler) enter(d *sched.Driver, k int) {
	if s.sharded() {
		d.EnterShard(k)
	}
}

// leave closes the active shard scope opened by enter.
func (s *Scheduler) leave(d *sched.Driver) {
	if s.sharded() {
		d.LeaveShard()
	}
}

// CRVVector aggregates the shard instances' CRVs as an element-wise max:
// the cluster is as contended on a dimension as its most contended shard.
func (s *Scheduler) CRVVector() constraint.Vector {
	var v constraint.Vector
	for k := range s.hooks {
		sv := s.hooks[k].CRVVector()
		for i := range v {
			if sv[i] > v[i] {
				v[i] = sv[i]
			}
		}
	}
	return v
}

// CRVHot reports whether any shard's monitor is hot.
func (s *Scheduler) CRVHot() bool {
	for k := range s.hooks {
		if s.hooks[k].CRVHot() {
			return true
		}
	}
	return false
}

// CongestedWorkers sums congested-worker counts over the shards (shards
// are disjoint, so the sum never double-counts).
func (s *Scheduler) CongestedWorkers() int {
	n := 0
	for k := range s.hooks {
		n += s.hooks[k].CongestedWorkers()
	}
	return n
}

// GangsWaiting sums the shard instances' waiting-gang gauges (zero when
// no instance queues gangs).
func (s *Scheduler) GangsWaiting() int {
	n := 0
	for k := range s.hooks {
		n += s.hooks[k].GangsWaiting()
	}
	return n
}

// ShardCRV returns shard k's own CRV as of its monitor's last refresh, a
// zero vector when the inner scheduler keeps no CRV state. Telemetry uses
// it for the per-shard CRV columns.
func (s *Scheduler) ShardCRV(k int) constraint.Vector { return s.hooks[k].CRVVector() }
