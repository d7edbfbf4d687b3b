package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"

	"github.com/phoenix-sched/phoenix/internal/bitset"
	"github.com/phoenix-sched/phoenix/internal/cluster"
	"github.com/phoenix-sched/phoenix/internal/faults"
	"github.com/phoenix-sched/phoenix/internal/sched"
	"github.com/phoenix-sched/phoenix/internal/simulation"
	"github.com/phoenix-sched/phoenix/internal/trace"
)

// Layer microbenchmark for Phoenix's heartbeat. The fixture is the
// service-phoenix-supplyloss run (2,250 workers, bursty arrivals,
// scenarios/supply-loss.json) without telemetry or admission; the timed
// operation is one full OnHeartbeat during the eth_speed outage. Between
// timed beats the simulation runs on untimed, so every beat sees the
// queues, estimator churn and probe moves of a real run. The candidate is
// Scheduler.OnHeartbeat; the reference is the heartbeat it replaced, copied
// below (and only here): a full estimate sweep, a policy sweep every hot
// beat, and victim selection by append and two sorts with a per-beat target
// map. Both make the same decisions (TestReferenceHeartbeatSameRun), so the
// two sides time the same beats. A forced collection before each timed beat
// keeps the simulation's garbage from being collected on the clock; the
// allocation savings show in allocs/op instead.

// Outage window of scenarios/supply-loss.json, in seconds.
const outageFrom, outageTo = 120, 360

// beatFunc is one heartbeat implementation.
type beatFunc func(s *Scheduler, d *sched.Driver, now simulation.Time)

func candidateBeat(s *Scheduler, d *sched.Driver, now simulation.Time) { s.OnHeartbeat(d, now) }

// referenceBeat is OnHeartbeat before the incremental heartbeat.
func referenceBeat(s *Scheduler, d *sched.Driver, now simulation.Time) {
	m := s.monitor
	m.heartbeats++
	for i := range m.demandCredit {
		m.demandCredit[i] *= demandDecay
	}
	m.vector = d.QueueCRV()
	m.hot = m.vector.AnyAbove(s.opts.CRVThreshold)
	for _, w := range d.Workers() {
		wait, saturated := w.Estimator.EstimateWait()
		if saturated {
			wait = math.Inf(1)
		}
		m.lastWait[w.ID] = wait
		m.marked[w.ID] = wait > s.opts.QwaitThresholdSeconds
	}
	hot := m.hot
	if s.opts.CRVReordering {
		if hot {
			if s.crvOn == nil {
				s.crvOn = make([]bool, d.Cluster().Size())
			}
			for _, w := range d.Workers() {
				want := m.Marked(w.ID)
				if want != s.crvOn[w.ID] {
					if want {
						d.SetPolicy(w, s.crv)
					} else {
						d.SetPolicy(w, s.srpt)
					}
					s.crvOn[w.ID] = want
				}
			}
		} else if s.wasHot {
			for _, w := range d.Workers() {
				if s.crvOn[w.ID] {
					d.SetPolicy(w, s.srpt)
					s.crvOn[w.ID] = false
				}
			}
		}
		s.wasHot = hot
	}
	if s.opts.RescheduleBudget > 0 {
		globalBudget := d.Cluster().Size() / 8
		if globalBudget < s.opts.RescheduleBudget {
			globalBudget = s.opts.RescheduleBudget
		}
		overdue := simulation.Time(s.opts.StuckWaitSeconds * float64(simulation.Second))
		targetLoad := make(map[int]int)
		for _, w := range d.Workers() {
			if globalBudget <= 0 {
				break
			}
			switch {
			case hot && m.Marked(w.ID):
				globalBudget -= referenceReschedule(s, d, w, targetLoad, globalBudget, 0, now)
			case overdue > 0:
				globalBudget -= referenceReschedule(s, d, w, targetLoad, globalBudget, overdue, now)
			}
		}
	}
}

func referenceReschedule(s *Scheduler, d *sched.Driver, w *sched.Worker, targetLoad map[int]int, remaining int, minWait, now simulation.Time) int {
	budget := s.opts.RescheduleBudget
	if budget > remaining {
		budget = remaining
	}
	victims := refSelectVictims(w.Queue(), budget, minWait, now)
	moved := 0
	for i := len(victims) - 1; i >= 0; i-- {
		v := victims[i]
		cands := d.Cluster().Matches().Satisfying(v.e.Job.Constraints)
		best := referenceCalmestTarget(s, d, cands, w, targetLoad)
		if best == nil {
			continue
		}
		if d.MoveEntry(w, best, v.idx) {
			d.Collector().RescheduledProbes++
			targetLoad[best.ID]++
			moved++
		}
	}
	return moved
}

func referenceCalmestTarget(s *Scheduler, d *sched.Driver, cands *bitset.Set, src *sched.Worker, targetLoad map[int]int) *sched.Worker {
	sample := d.SampleWorkers(cands, s.opts.RescheduleSample, s.stream)
	now := d.Now()
	var (
		best  *sched.Worker
		bestB simulation.Time
	)
	for _, cand := range sample {
		if cand == src || s.monitor.Marked(cand.ID) || targetLoad[cand.ID] >= maxMovesPerTarget {
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

// beatPhoenix is Phoenix running heartbeat implementation beat; when
// onBeat is set it wraps every beat instead (the benchmark's timer).
type beatPhoenix struct {
	*Scheduler
	beat   beatFunc
	onBeat func(d *sched.Driver, now simulation.Time, run func())
}

func (p beatPhoenix) OnHeartbeat(d *sched.Driver, now simulation.Time) {
	run := func() { p.beat(p.Scheduler, d, now) }
	if p.onBeat == nil {
		run()
		return
	}
	p.onBeat(d, now, run)
}

// outageRun assembles the benchmark fixture around s: the supply-loss
// service workload at the given scale, arrival trace seed 1000.
func outageRun(tb testing.TB, cl *cluster.Cluster, scale float64, s sched.Scheduler) *sched.Driver {
	tb.Helper()
	sc, err := faults.LoadScenario("../../scenarios/supply-loss.json")
	if err != nil {
		tb.Fatal(err)
	}
	src, err := trace.NewArrivalSource(trace.GoogleConfig(scale), trace.ArrivalConfig{Kind: trace.ArrivalBursty, RateMultiplier: 1}, cl, 1000)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := sched.NewServiceDriver(sched.DefaultConfig(), cl, src, s, 7)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := faults.Attach(d, sc); err != nil {
		tb.Fatal(err)
	}
	return d
}

func outageCluster(tb testing.TB, scale float64) *cluster.Cluster {
	tb.Helper()
	cl, err := cluster.GoogleProfile().GenerateCluster(trace.GoogleConfig(scale).NumNodes, simulation.NewRNG(42).Stream("cli/machines"))
	if err != nil {
		tb.Fatal(err)
	}
	return cl
}

func BenchmarkHeartbeat(b *testing.B) {
	cl := outageCluster(b, 0.15)
	for _, bc := range []struct {
		name string
		beat beatFunc
	}{{"incremental", candidateBeat}, {"reference", referenceBeat}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.StopTimer()
			timed := 0
			for timed < b.N {
				p, err := New(DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				d := outageRun(b, cl, 0.15, beatPhoenix{Scheduler: p, beat: bc.beat,
					onBeat: func(d *sched.Driver, now simulation.Time, run func()) {
						if now < outageFrom*simulation.Second {
							run()
							return
						}
						if now >= outageTo*simulation.Second {
							d.Halt()
							run()
							return
						}
						// A collection the simulation's garbage started must not
						// land inside the timed beat.
						runtime.GC()
						b.StartTimer()
						run()
						b.StopTimer()
						if timed++; timed == b.N {
							d.Halt()
						}
					}})
				if _, err := d.RunService(context.Background(), 900*simulation.Second); !errors.Is(err, simulation.ErrHalted) {
					b.Fatalf("run ended before the outage closed: %v", err)
				}
			}
		})
	}
}

// TestReferenceHeartbeatSameRun holds BenchmarkHeartbeat's premise: the
// reference heartbeat makes the candidate's decisions, so the whole
// supply-loss run digests identically under either.
func TestReferenceHeartbeatSameRun(t *testing.T) {
	cl := outageCluster(t, 0.05)
	var digests [2]uint64
	for i, beat := range []beatFunc{candidateBeat, referenceBeat} {
		p, err := New(DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		d := outageRun(t, cl, 0.05, beatPhoenix{Scheduler: p, beat: beat})
		res, err := d.RunService(context.Background(), 600*simulation.Second)
		if err != nil {
			t.Fatal(err)
		}
		if res.Collector.RescheduledProbes == 0 {
			t.Fatal("vacuous: no probe rescheduled")
		}
		digests[i] = res.Collector.Digest()
	}
	if digests[0] != digests[1] {
		t.Fatalf("digest %016x under the incremental heartbeat, %016x under the reference", digests[0], digests[1])
	}
}
