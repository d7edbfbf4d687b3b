package sched_test

import (
	"fmt"
	"math"
	"testing"

	"github.com/phoenix-sched/phoenix/internal/admission"
	"github.com/phoenix-sched/phoenix/internal/cluster"
	"github.com/phoenix-sched/phoenix/internal/constraint"
	"github.com/phoenix-sched/phoenix/internal/faults"
	"github.com/phoenix-sched/phoenix/internal/sched"
	"github.com/phoenix-sched/phoenix/internal/simulation"
	"github.com/phoenix-sched/phoenix/internal/trace"

	// Registers "phoenix", "sharded" and the policy stacks with sched.
	_ "github.com/phoenix-sched/phoenix/internal/core"
	_ "github.com/phoenix-sched/phoenix/internal/schedulers/policies"
	_ "github.com/phoenix-sched/phoenix/internal/schedulers/sharded"
)

// crvFromScratch recomputes the queue CRV without the driver's memo or its
// down-set supply arithmetic: live supply is counted machine by machine
// (up and satisfying), once per distinct constraint. The visit order —
// workers, queue, constraints — matches Driver.QueueCRV, so the float64
// sums must agree bit for bit.
func crvFromScratch(d *sched.Driver) constraint.Vector {
	supply := make(map[constraint.Constraint]int)
	live := func(c constraint.Constraint) int {
		if n, ok := supply[c]; ok {
			return n
		}
		n := 0
		for _, w := range d.Workers() {
			if !w.Failed() && c.SatisfiedBy(&w.Machine.Attrs) {
				n++
			}
		}
		supply[c] = n
		return n
	}
	var v constraint.Vector
	var lost constraint.DimMask
	for _, w := range d.Workers() {
		for _, e := range w.Queue() {
			for _, c := range e.Job.Constraints {
				if n := live(c); n > 0 {
					v.Set(c.Dim, v.Get(c.Dim)+1/float64(n))
				} else {
					lost = lost.With(c.Dim)
				}
			}
		}
	}
	for _, dim := range constraint.Dims {
		if lost.Has(dim) {
			v.Set(dim, constraint.SupplyLostRatio)
		}
	}
	return v
}

// crvChecker compares Driver.QueueCRV against crvFromScratch and counts
// the comparisons and how many saw a non-zero CRV (so a run that never
// queues constrained work cannot pass vacuously).
type crvChecker struct {
	t       *testing.T
	d       *sched.Driver
	checks  int
	nonzero int
}

func (c *crvChecker) check(where string) {
	c.t.Helper()
	got, want := c.d.QueueCRV(), crvFromScratch(c.d)
	for _, dim := range constraint.Dims {
		if math.Float64bits(got.Get(dim)) != math.Float64bits(want.Get(dim)) {
			c.t.Fatalf("%s at %v: QueueCRV[%s] = %v, from scratch %v", where, c.d.Now(), dim, got.Get(dim), want.Get(dim))
		}
	}
	c.checks++
	if _, m := want.Max(); m > 0 {
		c.nonzero++
	}
}

// attachCRVTicks adds two test-only periodic comparisons: one at the
// heartbeat period (sharing its instants with the Phoenix heartbeat and
// the admission tick) and one off-beat, so reads land between arbitrary
// queue mutations. On a sharded driver each tick then also compares every
// shard's scoped QueueCRV, right after the unscoped read has refreshed the
// memo. Both stop once the run's jobs have all finished.
func attachCRVTicks(t *testing.T, d *sched.Driver) *crvChecker {
	c := &crvChecker{t: t, d: d}
	total := len(d.Trace().Jobs)
	tick := func(where string) func(simulation.Time) bool {
		return func(simulation.Time) bool {
			c.check(where)
			if plan := d.ShardPlan(); plan != nil {
				for k := 0; k < plan.NumShards(); k++ {
					d.EnterShard(k)
					c.check(fmt.Sprintf("%s, shard %d", where, k))
					d.LeaveShard()
				}
			}
			return d.Collector().NumJobs() < total
		}
	}
	d.Every(d.Config().Heartbeat, tick("heartbeat tick"))
	d.Every(1700*simulation.Millisecond, tick("off-beat tick"))
	return c
}

// TestQueueCRVMemoNeverStale runs seeded workloads through every path that
// mutates a queue CRV input — enqueue, dispatch, stale discard, Phoenix
// probe migration, i.i.d. failures and repairs, injected supply loss and
// probe loss, admission relaxation, and a sharded driver — and compares
// the memoized QueueCRV with a from-scratch recompute at every tick.
func TestQueueCRVMemoNeverStale(t *testing.T) {
	cl, err := cluster.GoogleProfile().GenerateCluster(120, simulation.NewRNG(1).Stream("crvmemo/machines"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.GoogleConfig(1.0)
	cfg.NumNodes = cl.Size()
	cfg.NumJobs = 250
	// Amplify the soft dimensions so the controller has demand to relax.
	cfg.Synth.DimWeights[constraint.DimClock.Index()] = 30
	cfg.Synth.DimWeights[constraint.DimEthSpeed.Index()] = 30
	tr, err := trace.Generate(cfg, cl, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Priority tiers make the preempt policy migrate queued probes,
	// calling CandidateWorkers on jobs whose entries are queued.
	cfg.PriorityFraction = 0.3
	prioTr, err := trace.Generate(cfg, cl, 5)
	if err != nil {
		t.Fatal(err)
	}
	l := tr.Jobs[len(tr.Jobs)-1].Arrival.Seconds()
	lossy := &faults.Scenario{
		Name: "supply-and-probe-loss",
		Phases: []faults.Phase{
			{Kind: faults.KindOutage, StartSeconds: 0.15 * l, DurationSeconds: 0.45 * l, Dim: "eth_speed", Value: 100},
			{Kind: faults.KindProbeLoss, StartSeconds: 0.3 * l, DurationSeconds: 0.4 * l, Fraction: 0.3},
		},
	}
	cases := []struct {
		name      string
		scheduler string
		tr        *trace.Trace
		failures  float64
		faults    bool
		admission bool
	}{
		{"phoenix/failures", "phoenix", tr, 0.5, false, false},
		{"phoenix/faults+admission", "phoenix", tr, 0, true, true},
		{"sharded/failures+faults+admission", "sharded", tr, 0.5, true, true},
		{"preempt/faults+admission", "preempt", prioTr, 0, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := sched.NewByName(tc.scheduler)
			if err != nil {
				t.Fatal(err)
			}
			dcfg := sched.DefaultConfig()
			dcfg.FailureRatePerHour = tc.failures
			d, err := sched.NewDriver(dcfg, cl, tc.tr, s, 11)
			if err != nil {
				t.Fatal(err)
			}
			if tc.faults {
				if _, err := faults.Attach(d, lossy); err != nil {
					t.Fatal(err)
				}
			}
			var ctl *admission.Controller
			if tc.admission {
				if ctl, err = admission.Attach(d, admission.DefaultConfig()); err != nil {
					t.Fatal(err)
				}
			}
			c := attachCRVTicks(t, d)
			res, err := d.Run()
			if err != nil {
				t.Fatal(err)
			}
			col := res.Collector
			if c.checks < 100 || c.nonzero == 0 {
				t.Fatalf("vacuous: %d checks, %d with a non-zero CRV", c.checks, c.nonzero)
			}
			if tc.failures > 0 && col.WorkerFailures == 0 {
				t.Error("no failures injected")
			}
			if tc.faults && col.ProbesLost == 0 {
				t.Error("no probes lost")
			}
			if ctl != nil && ctl.ControllerTransitions() == 0 {
				t.Error("controller never relaxed a dimension")
			}
			// Shard-scoped candidate sets win over the relaxation policy
			// while the shard has local supply, so only unsharded runs
			// are sure to rewrite constraints.
			if ctl != nil && tc.scheduler != "sharded" && col.RelaxedJobs == 0 {
				t.Error("no job relaxed")
			}
			if col.RescheduledProbes == 0 {
				t.Error("no Phoenix probe migrations")
			}
			if tc.scheduler == "preempt" && col.Preemptions == 0 {
				t.Error("no preemptions")
			}
		})
	}
}

// pinFirst enqueues every task on worker 0 without consulting
// CandidateWorkers, so the directed test below controls exactly when each
// job's constraints are rewritten while its entries sit queued.
type pinFirst struct{}

func (pinFirst) Name() string               { return "pin-first" }
func (pinFirst) Init(d *sched.Driver) error { return nil }
func (pinFirst) SubmitJob(d *sched.Driver, js *sched.JobState) {
	for i := range js.Job.Tasks {
		d.EnqueueTask(d.Worker(0), js, &js.Job.Tasks[i])
	}
}

// relaxWhenOn relaxes every dimension once switched on.
type relaxWhenOn struct{ on bool }

func (p *relaxWhenOn) RelaxDims(*sched.JobState) constraint.DimMask {
	if p.on {
		return constraint.SoftDims()
	}
	return 0
}

// TestQueueCRVMemoSeesEveryInputMutation primes the memo and then mutates
// one CRV input at a time — each of CandidateWorkers' three constraint
// rewrites (policy-scoped, hard-subset and unconstrained), a failure, a
// recovery, a dequeue and an enqueue — comparing QueueCRV with the
// from-scratch value after each. Rewrites of queued jobs are rare in a
// natural run and often followed by another mutation at the same instant,
// so only a directed sequence proves each epoch bump is needed.
func TestQueueCRVMemoSeesEveryInputMutation(t *testing.T) {
	cl, err := cluster.GoogleProfile().GenerateCluster(20, simulation.NewRNG(1).Stream("crvmemo/machines"))
	if err != nil {
		t.Fatal(err)
	}
	attrs := &cl.Machine(0).Attrs
	isa := constraint.Constraint{Dim: constraint.DimISA, Op: constraint.OpEQ, Value: attrs.Get(constraint.DimISA)}
	// peer is an idle machine sharing machine 0's ISA, so failing it
	// changes the live supply behind the queued ISA constraints.
	peer := -1
	for id := 1; id < cl.Size(); id++ {
		if isa.SatisfiedBy(&cl.Machine(id).Attrs) {
			peer = id
			break
		}
	}
	if peer < 0 {
		t.Fatal("no second machine shares machine 0's ISA")
	}
	const never = 1 << 40
	sets := []constraint.Set{
		nil, // the blocker, running on worker 0 while the rest queue
		{{Dim: constraint.DimClock, Op: constraint.OpGT, Value: never}, isa},                                // hard subset
		{{Dim: constraint.DimCores, Op: constraint.OpGT, Value: never}},                                     // unconstrained
		{{Dim: constraint.DimEthSpeed, Op: constraint.OpEQ, Value: attrs.Get(constraint.DimEthSpeed)}, isa}, // policy-scoped
	}
	tr := &trace.Trace{Name: "directed", NumNodes: cl.Size(), ShortCutoff: 90 * simulation.Second}
	for i, cs := range sets {
		dur := simulation.Second
		if i == 0 {
			dur = 1000 * simulation.Second
		}
		tr.Jobs = append(tr.Jobs, trace.Job{ID: i, Short: true, Tasks: []trace.Task{
			{ID: i, JobID: i, Duration: dur, Constraints: cs},
		}})
	}
	d, err := sched.NewDriver(sched.DefaultConfig(), cl, tr, pinFirst{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	policy := &relaxWhenOn{}
	d.SetDriverPolicy(policy)
	c := &crvChecker{t: t, d: d}
	var moved *sched.JobState
	step := 0
	d.Every(10*simulation.Second, func(simulation.Time) bool {
		step++
		if step == 2 {
			c.check("after re-enqueue")
			return false
		}
		w0 := d.Worker(0)
		if w0.QueueLen() != len(sets)-1 {
			t.Fatalf("worker 0 queues %d entries, want %d", w0.QueueLen(), len(sets)-1)
		}
		c.check("primed")
		for i, e := range w0.Queue() {
			before := len(e.Job.Constraints)
			policy.on = i == 2
			d.CandidateWorkers(e.Job)
			if len(e.Job.Constraints) == before {
				t.Fatalf("job %d: CandidateWorkers did not rewrite %v", e.Job.Job.ID, e.Job.Job.Constraints())
			}
			c.check(fmt.Sprintf("after rewrite of job %d", e.Job.Job.ID))
		}
		d.InjectFailure(d.Worker(peer))
		c.check("after failure")
		d.InjectRecovery(d.Worker(peer))
		c.check("after recovery")
		moved = w0.Queue()[0].Job
		d.MoveEntry(w0, d.Worker(peer), 0)
		c.check("after dequeue")
		return true
	})
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if step != 2 || moved == nil || c.nonzero == 0 {
		t.Fatalf("directed sequence incomplete: step %d, %d non-zero checks", step, c.nonzero)
	}
}
