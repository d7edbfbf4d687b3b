package sched

import (
	"fmt"

	"github.com/phoenix-sched/phoenix/internal/bitset"
	"github.com/phoenix-sched/phoenix/internal/cluster"
	"github.com/phoenix-sched/phoenix/internal/constraint"
	"github.com/phoenix-sched/phoenix/internal/metrics"
	"github.com/phoenix-sched/phoenix/internal/queueing"
	"github.com/phoenix-sched/phoenix/internal/simulation"
	"github.com/phoenix-sched/phoenix/internal/trace"
)

// Driver runs one trace through one scheduler on one cluster. It owns the
// event engine, the workers, and metric collection; the scheduler only
// decides placement and queue order.
type Driver struct {
	cfg       Config
	engine    *simulation.Engine
	cl        *cluster.Cluster
	tr        *trace.Trace
	workers   []*Worker
	policies  []QueuePolicy
	collector *metrics.Collector
	rng       *simulation.RNG
	scheduler Scheduler

	// hooks are the scheduler's optional hooks, resolved once at
	// construction (HooksOf).
	hooks Hooks

	// observers receive every driver state transition (AttachObserver);
	// empty for plain runs so the notification helpers cost one length
	// check on the hot path.
	observers []Observer

	// longOccupied flags workers hosting long-job work (queued, in flight,
	// or running) — the bit vector Eagle's succinct state sharing gossips.
	longOccupied *bitset.Set

	// soa is the struct-of-arrays view of per-worker load (backlog and
	// running-end), shared with every Worker; placement scans read it
	// directly instead of dereferencing workers.
	soa *workerSoA
	// placeHeap and placePicks are the central placer's reusable
	// selection heap (soa.go) and chosen-worker list (central.go);
	// scratch, valid only within one PlaceJob call.
	placeHeap  backlogHeap
	placePicks []int32
	// rankScratch is SampleWorkers' reusable prefix-popcount buffer
	// (bitset.NthSets).
	rankScratch []int32

	// failStream drives failure injection when enabled.
	failStream *simulation.Stream

	// downSet mirrors the failed flag of every worker as a bitset so live
	// constraint supply (static supply minus failed machines) is one
	// word-wise popcount instead of a cluster scan; downCount caches its
	// popcount for the nothing-is-down fast path.
	downSet   *bitset.Set
	downCount int

	// crvMemo is the last unscoped QueueCRV result, valid while
	// soa.queueEpoch still equals crvMemoEpoch.
	crvMemo      constraint.Vector
	crvMemoEpoch uint64
	// supplyEpoch counts the failures and recoveries, the events that
	// change live constraint supply. A JobState's supply memo (jobSupply)
	// is valid while its epoch equals this one; it starts at 1, so a new
	// job's zero epoch, which setConstraints also restores, is never
	// valid.
	supplyEpoch uint64

	// probeFilter, when non-nil, intercepts every probe placement; a true
	// return drops the probe in flight (fault-injected probe loss). See
	// SetProbeFilter.
	probeFilter func(w *Worker, js *JobState) bool

	// driverPolicy, when non-nil, scopes constraint relaxation per
	// dimension (SetDriverPolicy); nil on every plain run, preserving the
	// legacy all-or-nothing fallback byte for byte.
	driverPolicy DriverPolicy

	// reservations is the per-worker gang-reservation record
	// (reservation.go), lazily allocated alongside soa.resStartBy on the
	// first ReserveWorker call; nil on every run that never reserves.
	reservations  []reservation
	reservedCount int

	// shard is the sharded shared-state machinery (sharding.go), installed
	// only by the sharded meta-scheduler via SetSharding; nil on every
	// unsharded run, so the plain path never branches on it being active.
	shard *shardState

	// faultObservers holds the subset of observers that also implement
	// FaultObserver, resolved once at attach time.
	faultObservers []FaultObserver

	pendingJobs int
	span        simulation.Time

	// Service-mode state (NewServiceDriver / RunService). src feeds jobs
	// one at a time; admissionOpen is true while new arrivals are still
	// being scheduled; nextArrival is the armed arrival event, cancelled
	// when admission closes mid-gap.
	src            JobSource
	serviceMode    bool
	admissionOpen  bool
	nextArrival    *simulation.ScheduledEvent
	jobsAdmitted   int
	drainObservers []DrainObserver
}

// NewDriver constructs a run. The cluster size must match the trace's
// calibrated node count or the offered load would silently change; pass a
// cluster of exactly trace.NumNodes machines (experiments that sweep load
// regenerate the trace per size).
func NewDriver(cfg Config, cl *cluster.Cluster, tr *trace.Trace, s Scheduler, seed uint64) (*Driver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cl.Size() == 0 {
		return nil, fmt.Errorf("sched: empty cluster")
	}
	if len(tr.Jobs) == 0 {
		return nil, fmt.Errorf("sched: empty trace")
	}
	return newDriver(cfg, cl, tr, s, seed)
}

// newDriver is the construction shared by batch (NewDriver) and service
// (NewServiceDriver) drivers; callers have already validated the workload.
func newDriver(cfg Config, cl *cluster.Cluster, tr *trace.Trace, s Scheduler, seed uint64) (*Driver, error) {
	d := &Driver{
		cfg:       cfg,
		engine:    simulation.NewEngine(),
		cl:        cl,
		tr:        tr,
		workers:   make([]*Worker, cl.Size()),
		policies:  make([]QueuePolicy, cl.Size()),
		collector: metrics.NewCollector(len(tr.Jobs)),
		rng:       simulation.NewRNG(seed),
		scheduler: s,
	}
	d.soa = newWorkerSoA(cl.Size())
	d.crvMemoEpoch = ^uint64(0) // no memo until the first QueueCRV
	d.supplyEpoch = 1
	for i := range d.workers {
		est, err := queueing.NewEstimator(cfg.ServiceWindow, cfg.ArrivalWindow)
		if err != nil {
			return nil, err
		}
		d.workers[i] = &Worker{ID: i, Machine: cl.Machine(i), Estimator: est, waitStale: true, soa: d.soa}
		d.policies[i] = FIFO{}
	}
	d.longOccupied = bitset.New(cl.Size())
	d.downSet = bitset.New(cl.Size())
	d.hooks = HooksOf(s)
	return d, nil
}

// LongOccupied returns the bit vector of workers currently hosting long-job
// work. Callers must treat it as read-only; it is the live set, not a copy.
func (d *Driver) LongOccupied() *bitset.Set { return d.longOccupied }

// reserve accounts a newly placed entry against w before it physically
// arrives, so that concurrent placements see each other's load.
func (d *Driver) reserve(w *Worker, e *Entry) {
	d.soa.backlog[w.ID] += e.EstDur()
	if !e.Job.Short {
		w.longCount++
		if w.longCount == 1 {
			d.longOccupied.Set(w.ID)
		}
	}
}

// releaseLong drops one long-job residency from w (stale discard, task
// completion, or steal migration).
func (d *Driver) releaseLong(w *Worker, e *Entry) {
	if e.Job.Short {
		return
	}
	w.longCount--
	if w.longCount == 0 {
		d.longOccupied.Clear(w.ID)
	}
}

// Accessors for schedulers.

// Now reports the current virtual time.
func (d *Driver) Now() simulation.Time { return d.engine.Now() }

// Config returns the shared simulation parameters.
func (d *Driver) Config() Config { return d.cfg }

// Cluster returns the hardware description.
func (d *Driver) Cluster() *cluster.Cluster { return d.cl }

// Workers returns all workers (read via accessors; mutate via driver
// methods only). Inside an active shard scope (EnterShard) it returns only
// that shard's workers, so a bundled scheduler delegated to by the sharded
// meta-scheduler scans its own partition instead of the whole cluster.
func (d *Driver) Workers() []*Worker {
	if sh := d.shard; sh != nil && sh.active >= 0 {
		return sh.workers[sh.active]
	}
	return d.workers
}

// Worker returns the worker with the given ID, nil when out of range.
func (d *Driver) Worker(id int) *Worker {
	if id < 0 || id >= len(d.workers) {
		return nil
	}
	return d.workers[id]
}

// Collector returns the metric collector.
func (d *Driver) Collector() *metrics.Collector { return d.collector }

// Stream derives a named deterministic random stream for the run.
func (d *Driver) Stream(name string) *simulation.Stream { return d.rng.Stream(name) }

// After schedules fn to run after the given virtual delay. Schedulers use
// it to model their own control-plane latencies (decision queues, deferred
// batching) without reaching into the engine.
func (d *Driver) After(delay simulation.Time, fn func()) {
	d.engine.ScheduleAfter(delay, func(simulation.Time) { fn() })
}

// Every schedules fn at now+interval and then every interval of virtual
// time while fn returns true. It exists for passive periodic
// instrumentation (the telemetry sampler): fn must not mutate driver,
// worker, or job state, and the periodic events never reorder the events
// already scheduled (equal-time events run in insertion order), so a run
// with such a ticker attached is byte-identical to one without. A
// non-positive interval is ignored.
func (d *Driver) Every(interval simulation.Time, fn func(now simulation.Time) bool) {
	// The only error is a non-positive interval, excluded here.
	if interval > 0 {
		_ = d.engine.Every(interval, fn)
	}
}

// Halt stops an in-flight Run after the current event returns; Run then
// reports simulation.ErrHalted. It is the only Driver method safe to call
// from another goroutine (it delegates to the engine's atomic halt flag),
// which is how the experiment runner cancels sibling runs when one unit of
// a sweep fails.
func (d *Driver) Halt() { d.engine.Halt() }

// ShortCutoff returns the trace's short-job classification threshold.
func (d *Driver) ShortCutoff() simulation.Time { return d.tr.ShortCutoff }

// Trace returns the workload being replayed. Callers must treat it as
// read-only; it is shared across concurrent runs.
func (d *Driver) Trace() *trace.Trace { return d.tr }

// SetPolicy assigns worker w's queue policy.
func (d *Driver) SetPolicy(w *Worker, p QueuePolicy) { d.policies[w.ID] = p }

// SetAllPolicies assigns every worker the same queue policy. Inside an
// active shard scope it covers only that shard's workers, so per-shard
// scheduler instances do not clobber each other's queue policies.
func (d *Driver) SetAllPolicies(p QueuePolicy) {
	if sh := d.shard; sh != nil && sh.active >= 0 {
		for _, id := range sh.plan.MemberIDs(sh.active) {
			d.policies[id] = p
		}
		return
	}
	for i := range d.policies {
		d.policies[i] = p
	}
}

// Policy returns worker w's queue policy.
func (d *Driver) Policy(w *Worker) QueuePolicy { return d.policies[w.ID] }

// Result summarizes one run.
type Result struct {
	// Scheduler is the scheduler's name.
	Scheduler string
	// Collector holds per-job outcomes and counters.
	Collector *metrics.Collector
	// Span is the completion time of the last job.
	Span simulation.Time
	// Utilization is the mean busy fraction of the cluster over Span.
	Utilization float64
	// NumWorkers is the cluster size.
	NumWorkers int
}

// Run executes the simulation to completion.
func (d *Driver) Run() (*Result, error) {
	if d.serviceMode {
		return nil, fmt.Errorf("sched: Run on a service driver (use RunService)")
	}
	if err := d.scheduler.Init(d); err != nil {
		return nil, fmt.Errorf("sched: init %s: %w", d.scheduler.Name(), err)
	}
	d.pendingJobs = len(d.tr.Jobs)
	for i := range d.tr.Jobs {
		job := &d.tr.Jobs[i]
		js := d.newJobState(job)
		d.engine.Schedule(job.Arrival, func(simulation.Time) {
			d.notifyJobArrival(js)
			d.scheduler.SubmitJob(d, js)
		})
	}
	if d.hooks.Heartbeat != nil {
		d.engine.Schedule(d.cfg.Heartbeat, d.heartbeat)
	}
	if d.cfg.FailureRatePerHour > 0 {
		d.failStream = d.rng.Stream("driver/failures")
		d.scheduleNextFailure()
	}
	if err := d.engine.Run(); err != nil {
		return nil, err
	}
	if d.pendingJobs != 0 {
		return nil, fmt.Errorf("sched: %s finished with %d jobs incomplete", d.scheduler.Name(), d.pendingJobs)
	}
	return &Result{
		Scheduler:   d.scheduler.Name(),
		Collector:   d.collector,
		Span:        d.span,
		Utilization: d.collector.Utilization(len(d.workers), d.span),
		NumWorkers:  len(d.workers),
	}, nil
}

// newJobState derives the scheduler-facing view of a job: its classified
// short/long status, duration estimate, and resolved constraint summary.
func (d *Driver) newJobState(job *trace.Job) *JobState {
	js := &JobState{
		Job:         job,
		Short:       job.MeanTaskDuration() <= d.tr.ShortCutoff,
		EstDur:      job.MeanTaskDuration(),
		Constraints: job.Constraints(),
		Constrained: job.Constrained(),
		Placement:   job.Placement,
	}
	js.ConstraintDims = js.Constraints.Dims()
	return js
}

func (d *Driver) heartbeat(now simulation.Time) {
	d.hooks.Heartbeat.OnHeartbeat(d, now)
	// In service mode the heartbeat must outlive momentary empty queues:
	// admission being open means more jobs are coming. Batch runs never set
	// admissionOpen, so their stopping condition is unchanged.
	if d.pendingJobs > 0 || d.admissionOpen {
		d.engine.Schedule(now+d.cfg.Heartbeat, d.heartbeat)
	}
}

// scheduleNextFailure arms the next fail-stop event: a Poisson process at
// FailureRatePerHour x cluster size, stopping once the workload drains.
func (d *Driver) scheduleNextFailure() {
	ratePerSecond := d.cfg.FailureRatePerHour * float64(len(d.workers)) / 3600
	gap := simulation.FromSeconds(d.failStream.Exp(1 / ratePerSecond))
	if gap < simulation.Millisecond {
		gap = simulation.Millisecond
	}
	d.engine.ScheduleAfter(gap, func(now simulation.Time) {
		if d.pendingJobs == 0 && !d.admissionOpen {
			return
		}
		d.failWorker(d.workers[d.failStream.Intn(len(d.workers))], now)
		d.scheduleNextFailure()
	})
}

// failWorker takes w down for RepairDelay. The queue survives; the running
// task's partial execution is wasted and the task restarts from scratch at
// recovery (fail-stop with local restart).
func (d *Driver) failWorker(w *Worker, now simulation.Time) {
	if w.failed {
		return // already down; the repair in flight covers this event
	}
	d.takeDown(w, now)
	d.engine.ScheduleAfter(d.cfg.RepairDelay, func(rec simulation.Time) { d.recoverWorker(w) })
}

// takeDown performs the fail-stop state transition shared by i.i.d. churn
// (failWorker) and injected correlated outages (InjectFailure): the caller
// decides when — or whether — repair is scheduled.
func (d *Driver) takeDown(w *Worker, now simulation.Time) {
	w.failed = true
	d.downSet.Set(w.ID)
	d.downCount++
	d.soa.queueEpoch++
	d.supplyEpoch++
	d.collector.WorkerFailures++
	if w.running != nil {
		if w.completion != nil {
			d.engine.Cancel(w.completion)
			w.completion = nil
		}
		wasted := now - w.runningStarted
		if wasted > 0 {
			d.collector.WastedWork += wasted
			d.collector.BusyTime += wasted
		}
	}
	d.notifyWorkerFailure(w)
}

// recoverWorker brings w back: an interrupted task restarts from scratch,
// otherwise the queue resumes dispatch.
func (d *Driver) recoverWorker(w *Worker) {
	w.failed = false
	d.downSet.Clear(w.ID)
	d.downCount--
	d.soa.queueEpoch++
	d.supplyEpoch++
	d.notifyWorkerRecovery(w)
	now := d.engine.Now()
	if w.running != nil {
		w.runningStarted = now
		ends := now + d.serviceTime(w, w.runningTask)
		d.soa.runningEnds[w.ID] = ends
		w.completion = d.engine.Schedule(ends, func(simulation.Time) { d.completeTask(w) })
		return
	}
	d.tryDispatch(w)
	if w.running == nil && len(w.queue) == 0 && d.hooks.Idle != nil {
		d.hooks.Idle.OnWorkerIdle(d, w)
	}
}

// Fault-injection surface (internal/faults). These mutate the same state
// the i.i.d. churn path uses, so the two fault sources compose: an outage
// only recovers workers it successfully took down, and churn's scheduled
// repair of an already-recovered worker is absorbed by the failed-flag
// guards. All methods must be called from within engine events (or before
// Run); the single-threaded event loop is the synchronization.

// InjectFailure takes w down without scheduling automatic repair — the
// injector owns recovery (see InjectRecovery). It reports false, changing
// nothing, when w is already down.
func (d *Driver) InjectFailure(w *Worker) bool {
	if w.failed {
		return false
	}
	d.takeDown(w, d.engine.Now())
	return true
}

// InjectRecovery brings a worker downed by InjectFailure back up. It
// reports false, changing nothing, when w is already up (e.g. churn's
// repair raced the outage and won).
func (d *Driver) InjectRecovery(w *Worker) bool {
	if !w.failed {
		return false
	}
	d.recoverWorker(w)
	return true
}

// SetServiceFactor sets w's multiplicative service-time factor: every task
// *started* (or restarted after repair) while the factor is f runs for
// f x its trace duration, so a factor above 1 models a transient slowdown
// (degraded service rate) and 1 restores nominal speed. The realized
// service time flows into BusyTime and the worker's P-K estimator, so
// E[S]/E[S²] — and every waiting-time estimate built on them — feel the
// degradation. A task already in flight keeps its scheduled completion.
// Factors <= 0 are ignored. Observers implementing FaultObserver are
// notified when the factor actually changes.
func (d *Driver) SetServiceFactor(w *Worker, factor float64) {
	if factor <= 0 || factor == w.ServiceFactor() {
		return
	}
	w.slowFactor = factor
	d.notifyWorkerSlowdown(w, factor)
}

// serviceTime returns task t's wall-clock execution time on w under the
// worker's current service factor. Factor 1 (or unset) returns the trace
// duration unchanged, bit for bit, so runs without slowdowns are
// byte-identical to runs built before the fault layer existed.
func (d *Driver) serviceTime(w *Worker, t *trace.Task) simulation.Time {
	f := w.slowFactor
	if f == 0 || f == 1 {
		return t.Duration
	}
	return simulation.Time(float64(t.Duration) * f)
}

// SetProbeFilter installs (or, with nil, removes) the probe-loss filter: a
// non-nil filter sees every probe placement and returns true to drop it in
// flight. A dropped probe never reserves backlog or enqueues; the driver
// counts it in ProbesLost, notifies FaultObservers, and — modeling the
// placement RPC timeout — re-sends it after ProbeRetryDelay as long as the
// job still has unclaimed tasks. Retries pass through the filter again, so
// delivery is guaranteed only once the filter lifts (fault phases end).
func (d *Driver) SetProbeFilter(f func(w *Worker, js *JobState) bool) {
	d.probeFilter = f
}

// ProbeRetryDelay is how long after a lost probe placement the driver
// re-sends it: the scheduler's probe RPC timeout.
const ProbeRetryDelay = 2 * simulation.Second

// LiveSupplyOne reports how many machines satisfying the single constraint
// cn are currently up: the cluster's static supply minus the failed
// machines that satisfy cn. With nothing down it is exactly
// Cluster.SatisfyingOne. CRV computations use it so that a correlated
// outage erasing a dimension's supply is visible as supply loss, not
// masked by the static machine count.
func (d *Driver) LiveSupplyOne(cn constraint.Constraint) int {
	if sh := d.shard; sh != nil && sh.active >= 0 {
		return d.shardLiveSupplyOne(cn)
	}
	n := d.cl.SatisfyingOne(cn)
	if n == 0 || d.downCount == 0 {
		return n
	}
	return n - d.cl.SatisfyingOneAmong(cn, d.downSet)
}

// QueueCRV returns the queue-derived Constraint Resource Vector (paper
// §IV-A): every queued constrained entry adds, to each dimension it
// constrains, 1/(live machines satisfying that constraint), and a
// dimension with queued demand but zero live supply is clamped to
// constraint.SupplyLostRatio. It is the one CRV computation the Phoenix
// monitor, the telemetry recorder and the admission controller share.
//
// The scan visits workers, queue entries and constraints in order, so the
// float64 sums are bit-identical however often it runs. The result is
// memoized on the driver's queue epoch, which every input mutation bumps
// (queue push and delete, failure and recovery, constraint rewrites in
// CandidateWorkers): readers at one instant with no mutation between them
// share one scan. Inside an active shard scope it covers only that shard's
// workers and live supply (Workers, LiveSupplyOne) and is computed fresh.
func (d *Driver) QueueCRV() constraint.Vector {
	if sh := d.shard; sh != nil && sh.active >= 0 {
		return d.scanQueueCRV()
	}
	if d.crvMemoEpoch != d.soa.queueEpoch {
		d.crvMemo = d.scanQueueCRV()
		d.crvMemoEpoch = d.soa.queueEpoch
	}
	return d.crvMemo
}

// scanQueueCRV is QueueCRV's one pass over the (scoped) queues, reading
// each job's live supply from its memo where it has one (jobSupply).
func (d *Driver) scanQueueCRV() constraint.Vector {
	var vec constraint.Vector
	var lost constraint.DimMask
	for _, w := range d.Workers() {
		for _, e := range w.queue {
			supply := d.jobSupply(e.Job)
			for i, c := range e.Job.Constraints {
				var n int
				if supply != nil {
					n = int(supply[i])
				} else {
					n = d.LiveSupplyOne(c)
				}
				if n == 0 {
					// Demand with zero live supply: an outage erased every
					// satisfying machine. Clamped below instead of dividing
					// by zero.
					lost = lost.With(c.Dim)
					continue
				}
				vec.Set(c.Dim, vec.Get(c.Dim)+1/float64(n))
			}
		}
	}
	if lost != 0 {
		// The finite sentinel reads as maximally contended (AnyAbove
		// fires) without +Inf/NaN escaping into telemetry.
		for _, dim := range constraint.Dims {
			if lost.Has(dim) {
				vec.Set(dim, constraint.SupplyLostRatio)
			}
		}
	}
	return vec
}

// jobSupply returns the LiveSupplyOne of each of js's constraints, in
// order, recomputing them only when js's memo is stale. It returns nil,
// and the caller computes supply fresh, inside a shard scope (the memo
// holds cluster-wide supply) and for a set wider than the memo.
func (d *Driver) jobSupply(js *JobState) []int32 {
	cs := js.Constraints
	if sh := d.shard; (sh != nil && sh.active >= 0) || len(cs) > len(js.supply) {
		return nil
	}
	if js.supplyEpoch != d.supplyEpoch {
		for i, c := range cs {
			js.supply[i] = int32(d.LiveSupplyOne(c))
		}
		js.supplyEpoch = d.supplyEpoch
	}
	return js.supply[:len(cs)]
}

// DownCount reports how many workers are currently failed.
func (d *Driver) DownCount() int { return d.downCount }

// DownWorkers returns the bitset of currently failed workers. Callers must
// treat it as read-only; it is the live set, not a copy.
func (d *Driver) DownWorkers() *bitset.Set { return d.downSet }

// EnqueueTask places a bound task (early binding) into w's queue after one
// network delay. The backlog is reserved immediately.
func (d *Driver) EnqueueTask(w *Worker, js *JobState, t *trace.Task) {
	e := &Entry{Job: js, Task: t}
	d.reserve(w, e)
	d.engine.ScheduleAfter(d.transitDelay(d.commitPlacement(w)), func(now simulation.Time) {
		e.Enqueued = now
		d.admit(w, e)
	})
}

// EnqueueProbe places a late-binding probe for js into w's queue after one
// network delay. The backlog is reserved immediately. When a probe filter
// (SetProbeFilter) drops the placement, nothing is reserved or enqueued:
// the loss is counted, FaultObservers are notified, and the probe is
// re-sent after ProbeRetryDelay while js still has unclaimed tasks.
func (d *Driver) EnqueueProbe(w *Worker, js *JobState) {
	if d.probeFilter != nil && d.probeFilter(w, js) {
		d.collector.ProbesLost++
		d.notifyProbeLost(w, js)
		d.engine.ScheduleAfter(ProbeRetryDelay, func(simulation.Time) {
			if js.Unclaimed() == 0 {
				return
			}
			d.EnqueueProbe(w, js)
		})
		return
	}
	d.collector.Probes++
	e := &Entry{Job: js}
	d.reserve(w, e)
	d.engine.ScheduleAfter(d.transitDelay(d.commitPlacement(w)), func(now simulation.Time) {
		e.Enqueued = now
		d.admit(w, e)
	})
}

// MoveEntry migrates the queue entry at index idx on victim to thief (work
// stealing or probe rescheduling); the entry pays one network delay in
// transit. It reports false when idx is out of range. Callers account the
// move in their own collector counter (StolenTasks, RescheduledProbes).
func (d *Driver) MoveEntry(victim, thief *Worker, idx int) bool {
	if idx < 0 || idx >= victim.QueueLen() {
		return false
	}
	e := victim.stealAt(idx)
	d.releaseLong(victim, e)
	d.notifyDequeue(victim, e, DequeueMigrate)
	d.reserve(thief, e)
	d.engine.ScheduleAfter(d.transitDelay(d.commitPlacement(thief)), func(now simulation.Time) {
		e.Enqueued = now
		e.Bypassed = 0
		d.admit(thief, e)
	})
	return true
}

func (d *Driver) admit(w *Worker, e *Entry) {
	w.push(e)
	w.Estimator.ObserveArrival(d.engine.Now().Seconds())
	w.waitStale = true // the estimate may have moved (WaitEstimate)
	d.notifyEnqueue(w, e)
	if w.Idle() && !w.failed {
		d.tryDispatch(w)
	}
}

// tryDispatch serves queue entries until the slot is busy or the queue is
// exhausted. Stale probes (whose job has no unclaimed tasks left) are
// discarded for free — the cancellation message overlaps the next dispatch.
// Staleness is checked before any accounting: a discarded probe serves
// nobody, so it must neither charge a bypass to the entries ahead of it nor
// count as a reorder.
func (d *Driver) tryDispatch(w *Worker) {
	if w.failed {
		return
	}
	for w.running == nil && len(w.queue) > 0 {
		idx := d.policies[w.ID].Select(d, w)
		if idx < 0 {
			return
		}
		gated := false
		e := w.queue[idx]
		if e.Task == nil && e.Job.Unclaimed() == 0 {
			w.discardAt(idx)
			d.releaseLong(w, e)
			d.notifyDequeue(w, e, DequeueStale)
			continue // stale probe
		}
		if d.soa.resStartBy != nil && d.reservationBlocks(w, e, d.engine.Now()) {
			// A gang reservation holds the slot: only its own job, or work
			// that provably drains before the deadline, may start. The
			// policy's pick is blocked, but another queued entry may pass the
			// gate — above all the reserving job's own task, which nothing
			// else will ever re-kick — so fall back to the first admissible
			// entry instead of stalling the queue outright.
			idx = d.reservationFallback(w, d.engine.Now())
			if idx < 0 {
				return
			}
			gated = true
			e = w.queue[idx]
			if e.Task == nil && e.Job.Unclaimed() == 0 {
				w.discardAt(idx)
				d.releaseLong(w, e)
				d.notifyDequeue(w, e, DequeueStale)
				continue // stale probe
			}
		}
		if idx > 0 {
			d.collector.ReorderedTasks++
		}
		if gated {
			d.removeAtReserved(w, idx, d.engine.Now())
		} else {
			w.removeAt(idx)
		}
		task := e.Task
		if task == nil {
			// Non-nil: Unclaimed was checked above and nothing can claim
			// between the check and here (single-threaded event loop).
			task = e.Job.Claim()
		}
		d.notifyDequeue(w, e, DequeueDispatch)
		d.startTask(w, e, task)
	}
}

// startTask occupies w's slot with task. Probes pay one network delay to
// fetch the task from the scheduler (late binding's placement latency);
// bound tasks shipped with their payload and start immediately.
func (d *Driver) startTask(w *Worker, e *Entry, task *trace.Task) {
	if d.soa.resStartBy != nil && d.soa.resStartBy[w.ID] >= 0 && d.reservations[w.ID].js == e.Job {
		// The reserving gang's own task is starting: the reservation has
		// done its job, release the slot record (release-on-start).
		d.clearReservation(w)
	}
	start := d.engine.Now()
	if e.IsProbe() {
		start += d.cfg.NetworkDelay
	}
	e.Job.recordTask(start - e.Job.Job.Arrival)
	if d.hooks.Start != nil {
		d.hooks.Start.OnTaskStart(d, w, e, d.engine.Now()-e.Enqueued)
	}
	w.running = e
	w.runningTask = task
	w.runningStarted = start
	ends := start + d.serviceTime(w, task)
	d.soa.runningEnds[w.ID] = ends
	w.completion = d.engine.Schedule(ends, func(simulation.Time) { d.completeTask(w) })
	d.notifyStart(w, e, task)
}

// runSticky lets a StickyProvider start a task on w immediately, outside
// the queue. w must be idle. Long residency is accounted so that SSS sees
// sticky long work too. A sticky start is a real service overtaking every
// queued entry, so each one is charged a bypass — the same
// services-only accounting rule that exempts stale-probe discards; without
// the charge, sticky-heavy workloads never age queued entries toward the
// starvation cap and long-estimate shorts starve behind an endless batch.
// The charge saturates at the cap: past it the entry is already
// non-bypassable, and the slack invariant (Bypassed <= SlackThreshold)
// must keep holding while sticky work the entry cannot preempt drains.
func (d *Driver) runSticky(w *Worker, js *JobState, task *trace.Task) {
	for _, qe := range w.queue {
		if qe.Bypassed < d.cfg.SlackThreshold {
			qe.Bypassed++
		}
	}
	e := &Entry{Job: js, Task: task, Enqueued: d.engine.Now()}
	if !js.Short {
		w.longCount++
		if w.longCount == 1 {
			d.longOccupied.Set(w.ID)
		}
	}
	d.startTask(w, e, task)
}

func (d *Driver) completeTask(w *Worker) {
	now := d.engine.Now()
	e := w.running
	task := w.runningTask
	w.running = nil
	w.runningTask = nil
	w.completion = nil

	// Account the realized service time of this successful attempt — equal
	// to task.Duration except under an injected slowdown — so both cluster
	// busy-time and the P-K estimator's E[S]/E[S²] reflect the degraded
	// rate rather than the nominal trace duration. Read before the slot is
	// marked idle below.
	served := d.soa.runningEnds[w.ID] - w.runningStarted
	d.soa.runningEnds[w.ID] = idleEnds
	d.collector.BusyTime += served
	w.Estimator.ObserveService(served.Seconds())
	w.waitStale = true // the estimate may have moved (WaitEstimate)

	js := e.Job
	d.releaseLong(w, e)
	js.done++
	d.notifyComplete(w, js, task)
	if d.hooks.Completion != nil {
		d.hooks.Completion.OnTaskComplete(d, w, js, task)
	}
	if js.Finished() {
		d.finishJob(js, now)
	} else if d.hooks.Sticky != nil {
		if next := d.hooks.Sticky.NextSticky(d, w, js); next != nil {
			d.runSticky(w, js, next)
		}
	}
	if w.running == nil {
		d.tryDispatch(w)
	}
	if w.running == nil && len(w.queue) == 0 && d.hooks.Idle != nil {
		d.hooks.Idle.OnWorkerIdle(d, w)
	}
}

func (d *Driver) finishJob(js *JobState, now simulation.Time) {
	d.collector.AddJob(metrics.JobRecord{
		JobID:         js.Job.ID,
		Arrival:       js.Job.Arrival,
		Completion:    now,
		Short:         js.Short,
		Constrained:   js.Constrained,
		Dims:          js.Job.Constraints().Dims(),
		Placement:     js.Placement,
		NumTasks:      len(js.Job.Tasks),
		GangWidth:     js.Job.GangWidth,
		Priority:      js.Job.Priority,
		MaxQueueDelay: js.maxWait,
		SumQueueDelay: js.sumWait,
	})
	if now > d.span {
		d.span = now
	}
	d.pendingJobs--
	d.notifyJobFinish(js)
}

// CandidateWorkers computes the set of workers able to host js's tasks,
// applying the admission-control fallback every scheduler needs to make
// progress: if the full constraint set matches no machine, soft constraints
// (clock, NIC speed) are dropped and the job is marked Relaxed — the
// paper's "negotiating resources for tasks in which all the constraints
// could not be satisfied"; if even the hard subset matches nothing the job
// runs unconstrained (never the case for synthesized traces, whose
// constraints are anchored to real machines). Relaxation runs at most once
// per job: repeat calls neither re-count RelaxedJobs nor re-derive the
// constraint set.
//
// When a DriverPolicy is installed (SetDriverPolicy), it is consulted
// FIRST, replacing the all-or-nothing fallback with per-dimension scope:
// the policy's mask — intersected with the soft dimensions and the job's
// own constrained dimensions — names exactly which constraints to drop,
// and the drop commits even when the full set still has supply (proactive
// relaxation is what lets the admission controller shed queued demand from
// a contended dimension). A reduced set that matches nothing is discarded
// and the legacy ladder runs unchanged, so the policy can cost locality
// but never progress.
//
// The returned set comes from the cluster's match cache and is SHARED and
// READ-ONLY; callers that filter candidates must Clone first.
//
// Inside an active shard scope the set is further restricted to the
// shard's members whenever the shard has any satisfying machine; a shard
// with zero local supply for js falls through to the global path
// (cross-shard spill), so routing mistakes cost locality, never progress.
func (d *Driver) CandidateWorkers(js *JobState) *bitset.Set {
	if sh := d.shard; sh != nil && sh.active >= 0 {
		if m := sh.plan.Satisfying(sh.active, js.Constraints); m.Count > 0 {
			return m.Set
		}
	}
	matches := d.cl.Matches()
	if p := d.driverPolicy; p != nil && !js.Relaxed {
		if mask := p.RelaxDims(js) & js.ConstraintDims & constraint.SoftDims(); mask != 0 {
			reduced := js.Constraints.Without(mask)
			if cands, n := matches.SatisfyingWithCount(reduced); n > 0 {
				d.setConstraints(js, reduced)
				js.Relaxed = true
				d.collector.RelaxedJobs++
				return cands
			}
		}
	}
	cands, n := matches.SatisfyingWithCount(js.Constraints)
	if n > 0 {
		return cands
	}
	if !js.Relaxed {
		hard := js.Constraints.Hard()
		if len(hard) < len(js.Constraints) {
			if cands, n = matches.SatisfyingWithCount(hard); n > 0 {
				d.setConstraints(js, hard)
				js.Relaxed = true
				d.collector.RelaxedJobs++
				return cands
			}
		}
		js.Relaxed = true
		d.collector.RelaxedJobs++
	}
	if js.Constraints != nil {
		d.setConstraints(js, nil)
	}
	return matches.All()
}

// setConstraints rewrites js's effective constraint set (CandidateWorkers'
// relaxations). The queue CRV reads it, so its memo goes stale, and so
// does the job's own supply memo (jobSupply); no other job's supply moves.
func (d *Driver) setConstraints(js *JobState, cs constraint.Set) {
	js.Constraints = cs
	js.ConstraintDims = cs.Dims()
	js.supplyEpoch = 0
	d.soa.queueEpoch++
}

// SampleWorkers draws up to k distinct workers uniformly from the candidate
// set. When the set holds at most k workers it returns all of them.
//
// The drawn ranks map to workers in one batched select (workersAtRanks).
// Candidate sets interned by an installed shard plan take a faster path:
// the plan precomputed the set's popcount and ascending ID list, so drawing
// the r-th member is one array index. The sample — and the random stream
// consumption — is identical on both paths, because the r-th ascending ID
// of the interned list IS the bitset's r-th set bit.
func (d *Driver) SampleWorkers(cands *bitset.Set, k int, stream *simulation.Stream) []*Worker {
	if sh := d.shard; sh != nil {
		if m := sh.plan.Lookup(cands); m != nil {
			if m.Count == 0 {
				return nil
			}
			if k > m.Count {
				k = m.Count
			}
			ranks := stream.SampleWithoutReplacement(m.Count, k)
			out := make([]*Worker, 0, k)
			for _, r := range ranks {
				out = append(out, d.workers[m.IDs[r]])
			}
			return out
		}
	}
	n := cands.Count()
	if n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	ranks := stream.SampleWithoutReplacement(n, k)
	return d.workersAtRanks(make([]*Worker, 0, k), cands, ranks)
}

// workersAtRanks appends, in list order, the worker holding each rank's
// ascending-ID position in cands, overwriting ranks with those IDs. One
// prefix-popcount pass serves the whole list (bitset.NthSets), where a
// per-rank NthSet would rescan the words from the start every time.
func (d *Driver) workersAtRanks(out []*Worker, cands *bitset.Set, ranks []int) []*Worker {
	d.rankScratch = cands.NthSets(ranks, d.rankScratch)
	for _, id := range ranks {
		if id >= 0 {
			out = append(out, d.workers[id])
		}
	}
	return out
}

// PlaceProbes places n probes for js over the candidate set: a uniform
// sample of min(n, |cands|) distinct workers, cycled when the candidate set
// is smaller than n so that the number of probes never drops below n — a
// job whose constraints match fewer workers than it has tasks must still
// get every task claimed. It returns the probed workers (with repeats).
func (d *Driver) PlaceProbes(js *JobState, cands *bitset.Set, n int, stream *simulation.Stream) []*Worker {
	sample := d.SampleWorkers(cands, n, stream)
	if len(sample) == 0 {
		return nil
	}
	out := make([]*Worker, 0, n)
	for i := 0; i < n; i++ {
		w := sample[i%len(sample)]
		d.EnqueueProbe(w, js)
		out = append(out, w)
	}
	return out
}
