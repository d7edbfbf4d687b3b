package core

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/phoenix-sched/phoenix/internal/admission"
	"github.com/phoenix-sched/phoenix/internal/cluster"
	"github.com/phoenix-sched/phoenix/internal/faults"
	"github.com/phoenix-sched/phoenix/internal/sched"
	"github.com/phoenix-sched/phoenix/internal/schedulers/sharded"
	"github.com/phoenix-sched/phoenix/internal/simulation"
	"github.com/phoenix-sched/phoenix/internal/telemetry"
	"github.com/phoenix-sched/phoenix/internal/trace"
)

// refSelectVictims is the victim selection selectVictims replaced: collect
// every eligible probe, stable-sort by Enqueued, keep budget, and restore
// queue order.
func refSelectVictims(q []*sched.Entry, budget int, minWait, now simulation.Time) []victim {
	var victims []victim
	for i, e := range q {
		if !e.IsProbe() || !e.Job.Short || !e.Job.Constrained || e.Job.Unclaimed() == 0 {
			continue
		}
		if minWait > 0 && now-e.Enqueued < minWait {
			continue
		}
		victims = append(victims, victim{i, e})
	}
	sort.SliceStable(victims, func(a, b int) bool {
		return victims[a].e.Enqueued < victims[b].e.Enqueued
	})
	if len(victims) > budget {
		victims = victims[:budget]
	}
	sort.Slice(victims, func(a, b int) bool { return victims[a].idx < victims[b].idx })
	return victims
}

// randomQueue builds a queue of n entries as the driver keeps one:
// Enqueued non-decreasing in queue order, here with long runs of equal
// times. Entries mix probes and bound tasks of short and long, constrained
// and unconstrained jobs, some with every task already claimed.
func randomQueue(rng *rand.Rand, n int) []*sched.Entry {
	q := make([]*sched.Entry, n)
	at := simulation.Time(0)
	for i := range q {
		if rng.Intn(4) == 0 {
			at += simulation.Time(rng.Intn(20)) * simulation.Second
		}
		js := &sched.JobState{
			Job:         &trace.Job{ID: i, Tasks: make([]trace.Task, 1+rng.Intn(2))},
			Short:       rng.Intn(5) != 0,
			Constrained: rng.Intn(4) != 0,
		}
		for c := rng.Intn(3); c > 0; c-- {
			js.Claim()
		}
		e := &sched.Entry{Job: js, Enqueued: at}
		if rng.Intn(5) == 0 {
			e.Task = &js.Job.Tasks[0]
		}
		q[i] = e
	}
	return q
}

// TestSelectVictimsMatchesSort compares selectVictims with the sort-based
// selection on random driver-shaped queues, for budgets below, at and above
// the eligible count and for both the marked-worker (minWait 0) and the
// stuck-probe rescue cases.
func TestSelectVictimsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var dst []victim
	nonEmpty := 0
	for iter := 0; iter < 5000; iter++ {
		q := randomQueue(rng, rng.Intn(40))
		budget := 1 + rng.Intn(6)
		var minWait simulation.Time
		if rng.Intn(2) == 0 {
			minWait = simulation.Time(1+rng.Intn(60)) * simulation.Second
		}
		var now simulation.Time
		if len(q) > 0 {
			now = q[len(q)-1].Enqueued + simulation.Time(rng.Intn(60))*simulation.Second
		}
		want := refSelectVictims(q, budget, minWait, now)
		dst = selectVictims(dst, q, budget, minWait, now)
		if len(dst) != len(want) {
			t.Fatalf("iter %d: %d victims, want %d", iter, len(dst), len(want))
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("iter %d: victim %d = index %d, want %d", iter, i, dst[i].idx, want[i].idx)
			}
		}
		if len(want) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 1000 {
		t.Fatalf("vacuous: only %d selections found a victim", nonEmpty)
	}
}

// TestSelectVictimsAllocatesNothing holds the rescue's per-worker
// selection to zero allocations once its scratch has budget capacity.
func TestSelectVictimsAllocatesNothing(t *testing.T) {
	q := randomQueue(rand.New(rand.NewSource(2)), 200)
	dst := make([]victim, 0, 4)
	now := q[len(q)-1].Enqueued
	if n := testing.AllocsPerRun(100, func() { dst = selectVictims(dst, q, 4, 0, now) }); n != 0 {
		t.Errorf("selectVictims: %v allocs per call, want 0", n)
	}
	if len(dst) == 0 {
		t.Fatal("vacuous: no victim selected")
	}
}

// heartbeatStats counts what the incremental-heartbeat checks saw, so a run
// that never turns hot or marks a worker cannot pass vacuously.
type heartbeatStats struct {
	beats, hotBeats, markedSum int
}

// checkedPhoenix is Phoenix with a from-scratch check of the monitor's
// incremental state after every heartbeat.
type checkedPhoenix struct {
	*Scheduler
	t     *testing.T
	stats *heartbeatStats
}

func (c checkedPhoenix) OnHeartbeat(d *sched.Driver, now simulation.Time) {
	c.Scheduler.OnHeartbeat(d, now)
	c.verify(d)
}

// verify recomputes, for every worker in scope, the P-K estimate straight
// from the estimator, the mark, and the policy a full sweep would have set,
// and compares them with the monitor's lastWait, marked, MarkedCount and
// the scheduler's crvOn and the driver's policy. It also checks the two
// driver-kept facts the heartbeat relies on: each queue is sorted by
// Enqueued, and its probe count is exact.
func (c checkedPhoenix) verify(d *sched.Driver) {
	t, s, m := c.t, c.Scheduler, c.Scheduler.monitor
	t.Helper()
	marked := 0
	for _, w := range d.Workers() {
		wait, saturated := w.Estimator.EstimateWait()
		if math.Float64bits(m.lastWait[w.ID]) != math.Float64bits(wait) {
			t.Fatalf("%v worker %d: lastWait %v, estimator %v", d.Now(), w.ID, m.lastWait[w.ID], wait)
		}
		if got, sat := w.WaitEstimate(); math.Float64bits(got) != math.Float64bits(wait) || sat != saturated {
			t.Fatalf("%v worker %d: WaitEstimate (%v, %v), estimator (%v, %v)", d.Now(), w.ID, got, sat, wait, saturated)
		}
		mark := wait > s.opts.QwaitThresholdSeconds
		if m.marked[w.ID] != mark {
			t.Fatalf("%v worker %d: marked %v, want %v", d.Now(), w.ID, m.marked[w.ID], mark)
		}
		if mark {
			marked++
		}
		crv := s.opts.CRVReordering && m.hot && mark
		if on := s.crvOn != nil && s.crvOn[w.ID]; on != crv {
			t.Fatalf("%v worker %d: crvOn %v, want %v", d.Now(), w.ID, on, crv)
		}
		if isCRV := d.Policy(w) == sched.QueuePolicy(s.crv); isCRV != crv {
			t.Fatalf("%v worker %d: runs the CRV policy %v, want %v", d.Now(), w.ID, isCRV, crv)
		}
		probes := 0
		for i, e := range w.Queue() {
			if i > 0 && e.Enqueued < w.Queue()[i-1].Enqueued {
				t.Fatalf("%v worker %d: queue entry %d enqueued before entry %d", d.Now(), w.ID, i, i-1)
			}
			if e.IsProbe() {
				probes++
			}
		}
		if w.QueuedProbes() != probes {
			t.Fatalf("%v worker %d: QueuedProbes %d, queue holds %d", d.Now(), w.ID, w.QueuedProbes(), probes)
		}
	}
	if m.MarkedCount() != marked {
		t.Fatalf("%v: MarkedCount %d, recount %d", d.Now(), m.MarkedCount(), marked)
	}
	c.stats.beats++
	if m.hot {
		c.stats.hotBeats++
	}
	c.stats.markedSum += marked
}

// TestIncrementalHeartbeatMatchesRecompute runs the supply-loss service
// workload — outage, slowdown, admission relaxation, telemetry — through
// Phoenix unsharded and at four shards, and after every heartbeat compares
// the monitor's incrementally kept estimates, marks and policies with a
// from-scratch recompute (checkedPhoenix.verify).
func TestIncrementalHeartbeatMatchesRecompute(t *testing.T) {
	sc, err := faults.LoadScenario("../../scenarios/supply-loss.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		stats := &heartbeatStats{}
		s, err := sharded.NewWith("phoenix", shards, func() (sched.Scheduler, error) {
			p, err := New(DefaultOptions())
			return checkedPhoenix{Scheduler: p, t: t, stats: stats}, err
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := trace.GoogleConfig(0.05)
		cl, err := cluster.GoogleProfile().GenerateCluster(cfg.NumNodes, simulation.NewRNG(42).Stream("cli/machines"))
		if err != nil {
			t.Fatal(err)
		}
		src, err := trace.NewArrivalSource(cfg, trace.ArrivalConfig{Kind: trace.ArrivalBursty, RateMultiplier: 1}, cl, 1000)
		if err != nil {
			t.Fatal(err)
		}
		d, err := sched.NewServiceDriver(sched.DefaultConfig(), cl, src, s, 7)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := faults.Attach(d, sc); err != nil {
			t.Fatal(err)
		}
		if _, err := admission.Attach(d, admission.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		telemetry.Attach(d, telemetry.Options{CRV: s})
		res, err := d.RunService(context.Background(), 600*simulation.Second)
		if err != nil {
			t.Fatal(err)
		}
		if stats.beats < 60 || stats.hotBeats == 0 || stats.markedSum == 0 || res.Collector.RescheduledProbes == 0 {
			t.Fatalf("shards %d vacuous: %d beats, %d hot, %d marked worker-beats, %d rescheduled probes",
				shards, stats.beats, stats.hotBeats, stats.markedSum, res.Collector.RescheduledProbes)
		}
	}
}
