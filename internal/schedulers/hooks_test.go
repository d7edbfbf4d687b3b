package schedulers_test

import (
	"strings"
	"testing"

	"github.com/phoenix-sched/phoenix/internal/constraint"
	"github.com/phoenix-sched/phoenix/internal/sched"
	"github.com/phoenix-sched/phoenix/internal/schedulers/policies"
	"github.com/phoenix-sched/phoenix/internal/schedulers/sharded"
	"github.com/phoenix-sched/phoenix/internal/simulation"
	"github.com/phoenix-sched/phoenix/internal/trace"
)

// hookSet names the optional driver hooks h resolved, in a fixed order.
func hookSet(h sched.Hooks) string {
	var set []string
	for _, hook := range []struct {
		name    string
		present bool
	}{
		{"heartbeat", h.Heartbeat != nil},
		{"idle", h.Idle != nil},
		{"completion", h.Completion != nil},
		{"sticky", h.Sticky != nil},
		{"start", h.Start != nil},
	} {
		if hook.present {
			set = append(set, hook.name)
		}
	}
	return strings.Join(set, "+")
}

// TestRegisteredHookSets pins each registered scheduler's optional-hook
// set. perfbench's tracer wraps a scheduler in a timing decorator that
// implements exactly the hooks the scheduler does, and it has a decorator
// only for the sets below: a scheduler that gains or loses a hook breaks
// the benchmark, and only this test catches that inside tier-1.
func TestRegisteredHookSets(t *testing.T) {
	const all = "heartbeat+idle+completion+sticky+start"
	want := map[string]string{
		"phoenix":     "heartbeat+sticky+start",
		"eagle-c":     "sticky",
		"hawk-c":      "idle",
		"sparrow-c":   "",
		"yacc-d":      "",
		"centralized": "",
		"gang":        all,
		"preempt":     all,
		"backfill":    all,
		"sharded":     all,
	}
	registered := sched.Registered()
	if len(registered) != len(want) {
		t.Errorf("registered %v, want the %d pinned schedulers", registered, len(want))
	}
	for _, name := range registered {
		s, err := sched.NewByName(name)
		if err != nil {
			t.Fatal(err)
		}
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: hook set not pinned", name)
			continue
		}
		if got := hookSet(sched.HooksOf(s)); got != w {
			t.Errorf("%s: hook set %q, want %q", name, got, w)
		}
	}
}

// recorder is a fake scheduler implementing every optional hook and view;
// it counts each call that reaches it by method name.
type recorder struct{ calls map[string]int }

func (r *recorder) Name() string                             { return "recorder" }
func (r *recorder) Init(*sched.Driver) error                 { return nil }
func (r *recorder) SubmitJob(*sched.Driver, *sched.JobState) {}

func (r *recorder) OnHeartbeat(*sched.Driver, simulation.Time) { r.calls["OnHeartbeat"]++ }
func (r *recorder) OnWorkerIdle(*sched.Driver, *sched.Worker)  { r.calls["OnWorkerIdle"]++ }
func (r *recorder) OnTaskComplete(*sched.Driver, *sched.Worker, *sched.JobState, *trace.Task) {
	r.calls["OnTaskComplete"]++
}
func (r *recorder) NextSticky(*sched.Driver, *sched.Worker, *sched.JobState) *trace.Task {
	r.calls["NextSticky"]++
	return nil
}
func (r *recorder) OnTaskStart(*sched.Driver, *sched.Worker, *sched.Entry, simulation.Time) {
	r.calls["OnTaskStart"]++
}
func (r *recorder) CRVVector() constraint.Vector {
	r.calls["CRVVector"]++
	return constraint.Vector{}
}
func (r *recorder) CRVHot() bool                   { r.calls["CRVHot"]++; return false }
func (r *recorder) CongestedWorkers() int          { r.calls["CongestedWorkers"]++; return 0 }
func (r *recorder) NumShards() int                 { r.calls["NumShards"]++; return 1 }
func (r *recorder) ShardCRV(int) constraint.Vector { r.calls["ShardCRV"]++; return constraint.Vector{} }
func (r *recorder) GangsWaiting() int              { r.calls["GangsWaiting"]++; return 0 }

// TestWrappersForwardEveryHook wraps recording fakes in each policy and in
// the sharded scheduler at one and two shards, then calls every hook and
// view on the wrapper the way the driver and telemetry do: each call must
// reach the owning instance exactly once and no other instance at all.
// Worker hooks are owned by the worker's shard; the heartbeat and the
// aggregated CRV, congestion and gang views by every shard. A policy
// forwards the per-shard view whole, while the sharded scheduler answers
// NumShards itself and reads shard k's view from instance k's CRV.
func TestWrappersForwardEveryHook(t *testing.T) {
	cl, tr := testbed(t, 40, 20, 0.5, 1)
	one := func(wrap func(sched.Scheduler) sched.Scheduler) func(sched.Factory) (sched.Scheduler, error) {
		return func(f sched.Factory) (sched.Scheduler, error) {
			inner, err := f()
			return wrap(inner), err
		}
	}
	shards := func(n int) func(sched.Factory) (sched.Scheduler, error) {
		return func(f sched.Factory) (sched.Scheduler, error) { return sharded.NewWith("recorder", n, f) }
	}
	cases := []struct {
		name    string
		sharded bool
		wrap    func(sched.Factory) (sched.Scheduler, error)
	}{
		{"gang", false, one(func(s sched.Scheduler) sched.Scheduler { return policies.NewGang(s) })},
		{"preempt", false, one(func(s sched.Scheduler) sched.Scheduler { return policies.NewPreempt(s) })},
		{"backfill", false, one(func(s sched.Scheduler) sched.Scheduler { return policies.NewBackfill(s) })},
		{"sharded-x1", true, shards(1)},
		{"sharded-x2", true, shards(2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var insts []*recorder
			s, err := tc.wrap(func() (sched.Scheduler, error) {
				r := &recorder{calls: map[string]int{}}
				insts = append(insts, r)
				return r, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			d, err := sched.NewDriver(sched.DefaultConfig(), cl, tr, s, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Init(d); err != nil {
				t.Fatal(err)
			}
			h := sched.HooksOf(s)
			if got := hookSet(h); got != "heartbeat+idle+completion+sticky+start" ||
				h.CRV == nil || h.Shards == nil || h.Gang == nil {
				t.Fatalf("wrapper resolves hooks %q and views crv=%t shards=%t gang=%t; want all",
					got, h.CRV != nil, h.Shards != nil, h.Gang != nil)
			}

			// check makes one call and requires that method to have reached
			// exactly the instances owns selects, once each, and nothing else.
			check := func(method string, owns func(k int) bool, call func()) {
				t.Helper()
				call()
				for k, r := range insts {
					want := map[string]int{}
					if owns(k) {
						want[method] = 1
					}
					if len(r.calls) != len(want) || r.calls[method] != want[method] {
						t.Errorf("%s: instance %d saw %v, want %v", method, k, r.calls, want)
					}
					r.calls = map[string]int{}
				}
			}
			every := func(int) bool { return true }
			only := func(k int) func(int) bool { return func(i int) bool { return i == k } }

			check("OnHeartbeat", every, func() { h.Heartbeat.OnHeartbeat(d, 0) })
			for k := range insts {
				w := workerOfShard(t, d, k)
				check("OnWorkerIdle", only(k), func() { h.Idle.OnWorkerIdle(d, w) })
				check("OnTaskComplete", only(k), func() { h.Completion.OnTaskComplete(d, w, nil, nil) })
				check("NextSticky", only(k), func() { h.Sticky.NextSticky(d, w, nil) })
				check("OnTaskStart", only(k), func() { h.Start.OnTaskStart(d, w, nil, 0) })
			}
			check("CRVVector", every, func() { h.CRV.CRVVector() })
			check("CRVHot", every, func() { h.CRV.CRVHot() })
			check("CongestedWorkers", every, func() { h.CRV.CongestedWorkers() })
			check("GangsWaiting", every, func() { h.Gang.GangsWaiting() })
			if !tc.sharded {
				check("NumShards", every, func() { h.Shards.NumShards() })
				check("ShardCRV", every, func() { h.Shards.ShardCRV(0) })
				return
			}
			if got := h.Shards.NumShards(); got != len(insts) {
				t.Errorf("NumShards %d, want %d", got, len(insts))
			}
			for k := range insts {
				check("CRVVector", only(k), func() { h.Shards.ShardCRV(k) })
			}
		})
	}
}

// workerOfShard returns a worker of shard k; without a shard plan every
// worker belongs to shard 0.
func workerOfShard(t *testing.T, d *sched.Driver, k int) *sched.Worker {
	t.Helper()
	plan := d.ShardPlan()
	if plan == nil {
		return d.Worker(0)
	}
	return d.Worker(int(plan.MemberIDs(k)[0]))
}
