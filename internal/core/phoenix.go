package core

import (
	"fmt"

	"github.com/phoenix-sched/phoenix/internal/bitset"
	"github.com/phoenix-sched/phoenix/internal/constraint"
	"github.com/phoenix-sched/phoenix/internal/sched"
	"github.com/phoenix-sched/phoenix/internal/simulation"
	"github.com/phoenix-sched/phoenix/internal/trace"
)

// Options configure Phoenix. The defaults reproduce the paper's settings.
type Options struct {
	// CRVThreshold is the per-dimension contention level above which
	// CRV-based reordering activates. The CRV ratio is queued tasks per
	// satisfying worker, so 1.0 marks the point where a constrained
	// resource has a full task of backlog per machine able to serve it.
	CRVThreshold float64
	// QwaitThresholdSeconds marks a worker congested when its estimated
	// P-K waiting time exceeds it ("conservatively set ... translates to
	// peak utilization in the datacenter", §IV-B).
	QwaitThresholdSeconds float64
	// CRVReordering enables switching congested workers to the CRV queue
	// policy during contended intervals (Algorithm 1). Disabling it
	// isolates the other mechanisms for ablation.
	CRVReordering bool
	// WaitAwareProbing enables oversample-then-pick-least-wait probe
	// placement during contended intervals.
	WaitAwareProbing bool
	// OversampleFactor is how many times more candidates than probes the
	// wait-aware path inspects.
	OversampleFactor int
	// Slack bounds how often an entry can be bypassed; zero means "use
	// the driver's SlackThreshold".
	Slack int
	// RareFamilyFraction soft-reserves rare hardware for constrained
	// tasks: workers whose configuration family covers less than this
	// fraction of the cluster are avoided by the centralized long-job
	// placer and by short jobs that have alternatives. Zero (the default)
	// disables the reserve: when long jobs carry the bulk of the work,
	// carving capacity out shrinks the whole cluster's effective size and
	// hurts more than it protects — the ablation bench quantifies this.
	RareFamilyFraction float64
	// DemandScorePlacement additionally breaks long-placement load ties
	// away from workers carrying live constrained demand. Off by default
	// for the same reason as the reserve; kept for the ablation bench.
	DemandScorePlacement bool
	// RescheduleBudget is the per-congested-worker number of constrained
	// short probes the monitor may migrate to calmer satisfying workers
	// each heartbeat — the paper's "dynamically rescheduling the probes
	// of constrained tasks based on CRV" (§VI-B2). Zero disables
	// rescheduling.
	RescheduleBudget int
	// RescheduleSample is how many alternative satisfying workers a
	// rescheduled probe considers.
	RescheduleSample int
	// StuckWaitSeconds extends probe rescheduling to probes whose realized
	// wait exceeds it, on any worker. The congestion mark is built from
	// the P-K waiting-time *estimate*, which goes blind exactly where the
	// tail forms: a worker whose slot is pinned by a long task dispatches
	// nothing, so its queue generates no samples and the estimator never
	// flags it. A probe that has already waited this long is stuck no
	// matter what the estimator says. Zero disables the rescue and
	// reverts to marked-worker-only rescheduling (for ablation).
	StuckWaitSeconds float64
	// ValidateEstimates records an (estimate, realized) waiting-time pair
	// for every task start, for the estimator-accuracy experiment. Off by
	// default: it allocates one sample per task.
	ValidateEstimates bool
}

// DefaultOptions returns the paper-calibrated configuration.
func DefaultOptions() Options {
	return Options{
		CRVThreshold:          0.25,
		QwaitThresholdSeconds: 5,
		CRVReordering:         true,
		WaitAwareProbing:      true,
		OversampleFactor:      2,
		RescheduleBudget:      4,
		RescheduleSample:      8,
		StuckWaitSeconds:      30,
	}
}

// Validate reports option errors.
func (o *Options) Validate() error {
	switch {
	case o.CRVThreshold <= 0:
		return fmt.Errorf("phoenix: CRV threshold %v must be positive", o.CRVThreshold)
	case o.QwaitThresholdSeconds <= 0:
		return fmt.Errorf("phoenix: Qwait threshold %v must be positive", o.QwaitThresholdSeconds)
	case o.OversampleFactor < 1:
		return fmt.Errorf("phoenix: oversample factor %d must be >= 1", o.OversampleFactor)
	case o.Slack < 0:
		return fmt.Errorf("phoenix: negative slack")
	case o.RareFamilyFraction < 0 || o.RareFamilyFraction >= 1:
		return fmt.Errorf("phoenix: rare family fraction %v out of [0, 1)", o.RareFamilyFraction)
	case o.RescheduleBudget < 0:
		return fmt.Errorf("phoenix: negative reschedule budget")
	case o.RescheduleBudget > 0 && o.RescheduleSample < 1:
		return fmt.Errorf("phoenix: reschedule sample %d must be >= 1", o.RescheduleSample)
	case o.StuckWaitSeconds < 0:
		return fmt.Errorf("phoenix: negative stuck wait %v", o.StuckWaitSeconds)
	}
	return nil
}

// Scheduler is Phoenix.
type Scheduler struct {
	opts    Options
	monitor *Monitor
	stream  *simulation.Stream
	placer  sched.CentralPlacer
	// reserve is the rare-hardware set the long placer avoids; short jobs
	// also steer around it unless their candidates leave no choice, so
	// the reserve stays available for the constrained tasks that need it.
	reserve *bitset.Set

	srpt sched.QueuePolicy
	crv  *CRVPolicy

	// crvOn mirrors which workers currently run the CRV policy, and wasHot
	// whether the previous heartbeat was hot, so OnHeartbeat only writes
	// policies on transitions instead of sweeping the cluster every beat.
	crvOn  []bool
	wasHot bool

	// Probe-rescue scratch, reused across heartbeats: victims holds one
	// worker's selected probes (selectVictims); targetLoad counts the
	// beat's migrations per target worker, and targeted lists the workers
	// it has non-zero, for the reset at the next beat.
	victims    []victim
	targetLoad []uint8
	targeted   []int32
}

var (
	_ sched.Scheduler        = (*Scheduler)(nil)
	_ sched.HeartbeatHandler = (*Scheduler)(nil)
	_ sched.StickyProvider   = (*Scheduler)(nil)
	_ sched.StartObserver    = (*Scheduler)(nil)
)

// New returns a Phoenix scheduler.
func New(opts Options) (*Scheduler, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Scheduler{opts: opts}, nil
}

func init() {
	sched.Register("phoenix", func() (sched.Scheduler, error) { return New(DefaultOptions()) })
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "phoenix" }

// Monitor exposes the CRV monitor (for tests and the experiment harness).
func (s *Scheduler) Monitor() *Monitor { return s.monitor }

// CRV-state accessors, implementing the telemetry layer's CRVSource so a
// run report can show Phoenix's own contention view (monitor hot flag,
// congested-worker count) next to the recorder's queue-derived CRV. All
// three are read-only and return zero values before Init.

// CRVVector returns the monitor's CRV as of the last heartbeat refresh.
func (s *Scheduler) CRVVector() constraint.Vector {
	if s.monitor == nil {
		return constraint.Vector{}
	}
	return s.monitor.Vector()
}

// CRVHot reports whether any dimension exceeded the CRV threshold at the
// last heartbeat refresh.
func (s *Scheduler) CRVHot() bool { return s.monitor != nil && s.monitor.Hot() }

// CongestedWorkers reports how many workers the monitor currently marks
// congested.
func (s *Scheduler) CongestedWorkers() int {
	if s.monitor == nil {
		return 0
	}
	return s.monitor.MarkedCount()
}

// Init implements sched.Scheduler.
func (s *Scheduler) Init(d *sched.Driver) error {
	slack := s.opts.Slack
	if slack == 0 {
		slack = d.Config().SlackThreshold
	}
	s.monitor = NewMonitor(d.Cluster().Size())
	s.stream = d.Stream("phoenix/probes")
	s.srpt = sched.SRPT{Slack: slack}
	s.crv = &CRVPolicy{Monitor: s.monitor, Slack: slack, Threshold: s.opts.CRVThreshold}
	s.reserve = rareFamilyWorkers(d, s.opts.RareFamilyFraction)
	s.placer = sched.CentralPlacer{Reserved: s.reserve}
	if s.opts.DemandScorePlacement {
		s.placer.Score = func(w *sched.Worker) float64 { return s.monitor.DemandCredit(w.ID) }
	}
	d.SetAllPolicies(s.srpt)
	s.victims = make([]victim, 0, s.opts.RescheduleBudget)
	s.targetLoad = make([]uint8, d.Cluster().Size())
	return nil
}

// rareFamilyWorkers returns the set of workers whose exact configuration
// family covers less than frac of the cluster — the hardware that
// constrained tasks have the fewest alternatives to. Returns nil when the
// reserve is disabled.
func rareFamilyWorkers(d *sched.Driver, frac float64) *bitset.Set {
	if frac <= 0 {
		return nil
	}
	machines := d.Cluster().Machines()
	counts := make(map[constraint.Attributes]int)
	for i := range machines {
		counts[machines[i].Attrs]++
	}
	cutoff := int(frac * float64(len(machines)))
	rare := bitset.New(len(machines))
	for i := range machines {
		if counts[machines[i].Attrs] < cutoff {
			rare.Set(i)
		}
	}
	return rare
}

// OnHeartbeat implements sched.HeartbeatHandler: refresh the CRV lookup
// table and the per-worker wait estimates, then switch marked workers to
// CRV-based reordering while any dimension is contended (Algorithm 1).
// Everyone else runs SRPT, which below saturation gives at least 99% of
// jobs a response time no worse than any other discipline (§IV-A).
// Rescheduling sweeps marked workers during hot intervals and, whenever
// StuckWaitSeconds is set, rescues probes whose realized wait already
// exceeds it from any worker — congestion marking is estimate-driven and
// misses workers whose slot a long task has pinned (no dispatches, no
// waiting-time samples), which is exactly where constrained shorts starve.
func (s *Scheduler) OnHeartbeat(d *sched.Driver, now simulation.Time) {
	hot := s.monitor.Refresh(d, s.opts.CRVThreshold, s.opts.QwaitThresholdSeconds)
	if s.opts.CRVReordering {
		// Batched policy flip: per-worker writes happen only where the
		// policy must change. After a hot beat every worker's policy
		// matches its mark, so a following hot beat visits only the workers
		// whose mark flipped since; a cold-to-hot or hot-to-cold transition
		// sweeps the scope once, and two consecutive cold beats touch no
		// worker at all.
		switch {
		case hot && s.wasHot:
			for _, id := range s.monitor.flipped {
				s.applyMark(d, d.Worker(int(id)))
			}
		case hot:
			if s.crvOn == nil {
				s.crvOn = make([]bool, d.Cluster().Size())
			}
			for _, w := range d.Workers() {
				s.applyMark(d, w)
			}
		case s.wasHot:
			for _, w := range d.Workers() {
				if s.crvOn[w.ID] {
					d.SetPolicy(w, s.srpt)
					s.crvOn[w.ID] = false
				}
			}
		}
		s.wasHot = hot
	}
	s.monitor.flipped = s.monitor.flipped[:0]
	if s.opts.RescheduleBudget > 0 {
		// Per-beat caps: a congested cluster can have thousands of marked
		// workers all wanting to dump probes on the few calm ones; without
		// a per-target cap the calm workers become the next hotspot before
		// the next heartbeat can see it.
		globalBudget := d.Cluster().Size() / 8
		if globalBudget < s.opts.RescheduleBudget {
			globalBudget = s.opts.RescheduleBudget
		}
		overdue := simulation.Time(s.opts.StuckWaitSeconds * float64(simulation.Second))
		for _, id := range s.targeted {
			s.targetLoad[id] = 0
		}
		s.targeted = s.targeted[:0]
		for _, w := range d.Workers() {
			if globalBudget <= 0 {
				break
			}
			switch {
			case hot && s.monitor.Marked(w.ID):
				globalBudget -= s.rescheduleStuckProbes(d, w, globalBudget, 0, now)
			case overdue > 0:
				globalBudget -= s.rescheduleStuckProbes(d, w, globalBudget, overdue, now)
			}
		}
	}
}

// applyMark switches w to the policy its congestion mark calls for, if it
// is not running it already.
func (s *Scheduler) applyMark(d *sched.Driver, w *sched.Worker) {
	want := s.monitor.Marked(w.ID)
	if want == s.crvOn[w.ID] {
		return
	}
	if want {
		d.SetPolicy(w, s.crv)
	} else {
		d.SetPolicy(w, s.srpt)
	}
	s.crvOn[w.ID] = want
}

// rescheduleStuckProbes migrates up to RescheduleBudget constrained short
// probes from this worker to calmer satisfying workers — the dynamic probe
// rescheduling of §VI-B2. On congested (marked) workers minWait is zero and
// any eligible probe qualifies; elsewhere only probes that have already
// waited minWait do (the stuck-probe rescue). Only probes whose job still
// has unclaimed tasks are worth moving; each move pays one network delay.
// targetLoad tracks per-beat arrivals per target so no calm worker absorbs
// more than a couple of migrations; the return value counts moves
// performed, bounded by remaining.
func (s *Scheduler) rescheduleStuckProbes(d *sched.Driver, w *sched.Worker, remaining int, minWait simulation.Time, now simulation.Time) int {
	budget := s.opts.RescheduleBudget
	if budget > remaining {
		budget = remaining
	}
	// Collect victims first: moving entries mutates the queue.
	s.victims = selectVictims(s.victims, w.Queue(), budget, minWait, now)
	moved := 0
	// Move from the back so earlier indices stay valid.
	for i := len(s.victims) - 1; i >= 0; i-- {
		v := s.victims[i]
		// Interned read-only candidate set; sampling below never mutates.
		cands := d.Cluster().Matches().Satisfying(v.e.Job.Constraints)
		best := s.calmestTarget(d, cands, w)
		if best == nil {
			continue
		}
		if d.MoveEntry(w, best, v.idx) {
			d.Collector().RescheduledProbes++
			if s.targetLoad[best.ID] == 0 {
				s.targeted = append(s.targeted, int32(best.ID))
			}
			s.targetLoad[best.ID]++
			moved++
		}
	}
	return moved
}

// victim is a probe selected for rescheduling: its queue index and entry.
type victim struct {
	idx int
	e   *sched.Entry
}

// selectVictims returns, in ascending queue index, the at most budget
// eligible probes of queue q that have waited longest — those are the
// entries forming the response-time tail. Eligible means a constrained
// short job's probe whose job still has unclaimed tasks and, when minWait
// is positive, that has waited at least minWait by now. "Longest" orders by
// (Enqueued, queue index), the order a stable sort by Enqueued gives.
//
// A queue is sorted by Enqueued (the driver appends every entry at its
// arrival instant, sched.Worker.Queue), so that order is queue order: the
// victims are the first budget eligible entries, and the scan stops there
// or at the first entry younger than minWait, since every later one is
// younger still. dst is reused; selection allocates nothing once it has
// capacity budget.
func selectVictims(dst []victim, q []*sched.Entry, budget int, minWait, now simulation.Time) []victim {
	dst = dst[:0]
	for i, e := range q {
		if len(dst) == budget || (minWait > 0 && now-e.Enqueued < minWait) {
			break
		}
		if !e.IsProbe() || !e.Job.Short || !e.Job.Constrained || e.Job.Unclaimed() == 0 {
			continue
		}
		dst = append(dst, victim{i, e})
	}
	return dst
}

// maxMovesPerTarget bounds how many rescheduled probes one worker may
// receive within a single heartbeat.
const maxMovesPerTarget = 2

// calmestTarget samples satisfying workers and returns the unmarked,
// not-yet-saturated one with the smallest backlog, or nil when every
// sampled alternative is as congested as the source.
func (s *Scheduler) calmestTarget(d *sched.Driver, cands *bitset.Set, src *sched.Worker) *sched.Worker {
	sample := d.SampleWorkers(cands, s.opts.RescheduleSample, s.stream)
	now := d.Now()
	var (
		best  *sched.Worker
		bestB simulation.Time
	)
	for _, cand := range sample {
		if cand == src || s.monitor.Marked(cand.ID) || s.targetLoad[cand.ID] >= maxMovesPerTarget {
			continue
		}
		b := cand.Backlog(now)
		if best == nil || b < bestB || (b == bestB && cand.ID < best.ID) {
			best = cand
			bestB = b
		}
	}
	return best
}

// SubmitJob implements sched.Scheduler.
func (s *Scheduler) SubmitJob(d *sched.Driver, js *sched.JobState) {
	if !js.Short || js.Placement != trace.PlacementNone {
		// Long jobs, and any job with a rack placement constraint: the
		// combinatorial decision needs the centralized global view.
		s.placer.PlaceJob(d, js)
		return
	}
	cands := d.CandidateWorkers(js)
	if js.Constrained {
		s.monitor.ObserveDemand(cands)
	}
	// Stay off the rare-hardware reserve when the job has anywhere else
	// to go — the reserve exists for the jobs that don't.
	if s.reserve != nil {
		open := cands.Clone()
		// AndNot cannot fail: both sets span the cluster.
		_ = open.AndNot(s.reserve)
		if open.Any() {
			cands = open
		}
	}
	free := cands.Clone()
	_ = free.AndNot(d.LongOccupied())
	if free.Any() {
		cands = free
	}
	n := d.Config().ProbeRatio * len(js.Job.Tasks)
	// Wait-aware probing applies to constrained jobs only ("Phoenix ...
	// dynamically estimates the wait time of highly constrained nodes",
	// §VI-A). Steering the unconstrained majority by the same stale
	// estimates would concentrate the whole short workload on whatever
	// looked calm at the last heartbeat.
	if s.opts.WaitAwareProbing && js.Constrained && s.monitor.Hot() {
		s.placeWaitAware(d, js, cands, n)
		return
	}
	d.PlaceProbes(js, cands, n, s.stream)
}

// placeWaitAware oversamples candidates and drops the ones whose estimated
// waiting time marks them congested, probing uniformly among the rest — the
// dynamic wait-time estimation Phoenix substitutes for blind sampling
// during peak congestion. Filtering (rather than picking the global
// minimum) avoids herding every scheduler onto the same few workers between
// heartbeats, when the estimates are up to one interval stale. When too few
// uncongested candidates exist, the least-wait congested ones fill in.
func (s *Scheduler) placeWaitAware(d *sched.Driver, js *sched.JobState, cands *bitset.Set, n int) {
	sample := d.SampleWorkers(cands, n*s.opts.OversampleFactor, s.stream)
	if len(sample) == 0 {
		return
	}
	calm := sample[:0]
	var congested []*sched.Worker
	for _, w := range sample {
		if s.monitor.Marked(w.ID) {
			congested = append(congested, w)
		} else {
			calm = append(calm, w)
		}
	}
	if len(calm) < n && len(congested) > 0 {
		// Fill the shortfall with congested candidates in their (already
		// random) sample order. Sorting them by the heartbeat-stale wait
		// estimate would herd every scheduler onto the same apparent
		// minimum for the rest of the interval — at saturation that
		// collapses placement diversity exactly when it matters most.
		need := n - len(calm)
		if need > len(congested) {
			need = len(congested)
		}
		calm = append(calm, congested[:need]...)
	}
	if len(calm) > n {
		calm = calm[:n]
	}
	for i := 0; i < n; i++ {
		d.EnqueueProbe(calm[i%len(calm)], js)
	}
}

// OnTaskStart implements sched.StartObserver: when estimate validation is
// on, pair the worker's last heartbeat estimate with the realized wait.
func (s *Scheduler) OnTaskStart(_ *sched.Driver, w *sched.Worker, _ *sched.Entry, wait simulation.Time) {
	if !s.opts.ValidateEstimates {
		return
	}
	s.monitor.ObserveRealized(w.ID, wait.Seconds())
}

// NextSticky implements sched.StickyProvider (Eagle's SBP, which Phoenix
// keeps outside contended intervals).
func (s *Scheduler) NextSticky(_ *sched.Driver, _ *sched.Worker, js *sched.JobState) *trace.Task {
	if !js.Short {
		return nil
	}
	return js.Claim()
}
