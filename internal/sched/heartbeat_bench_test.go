package sched

import (
	"math"
	"testing"

	"github.com/phoenix-sched/phoenix/internal/cluster"
	"github.com/phoenix-sched/phoenix/internal/constraint"
	"github.com/phoenix-sched/phoenix/internal/simulation"
	"github.com/phoenix-sched/phoenix/internal/trace"
)

// Layer microbenchmark for the heartbeat's CRV reads. At every heartbeat
// three readers want the queue CRV at the same instant: the Phoenix
// monitor, the telemetry recorder and the admission controller. The
// candidate is Driver.QueueCRV read three times after one queue mutation
// (one scan, two memo hits); the reference is the three independent scans
// they ran before, copied here (and only here) for the comparison.

const (
	heartbeatWorkers = 2250 // the service-phoenix-supplyloss cluster (scale 0.15)
	heartbeatQueued  = 5625 // 2.5 entries per worker; that run averages ~5,700
)

// newHeartbeatFixture builds a loaded driver: heartbeatQueued entries of
// google-profile jobs spread round-robin over the workers' queues. With
// outage set, every eth_speed=100 machine is down, as in the supply-loss
// campaign's outage phase, so live supply pays the down-set subtraction
// and the lost-supply clamp runs.
func newHeartbeatFixture(tb testing.TB, outage bool) *Driver {
	tb.Helper()
	cl, err := cluster.GoogleProfile().GenerateCluster(heartbeatWorkers, simulation.NewRNG(1).Stream("m"))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := trace.GoogleConfig(0.15)
	cfg.NumNodes = heartbeatWorkers
	tr, err := trace.Generate(cfg, cl, 1000)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := NewDriver(DefaultConfig(), cl, tr, &fifoScheduler{}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	jobs := make([]*JobState, len(tr.Jobs))
	for i := range tr.Jobs {
		jobs[i] = d.newJobState(&tr.Jobs[i])
	}
	for i := 0; i < heartbeatQueued; i++ {
		d.workers[i%heartbeatWorkers].push(&Entry{Job: jobs[i%len(jobs)]})
	}
	if outage {
		for _, w := range d.workers {
			if w.Machine.Attrs.Get(constraint.DimEthSpeed) == 100 {
				d.InjectFailure(w)
			}
		}
		if d.DownCount() == 0 {
			tb.Fatal("no eth_speed=100 machine to take down")
		}
	}
	return d
}

// refMonitorCRV is the Phoenix monitor's former scan: live supply memoized
// per distinct constraint in a map cleared on every refresh.
func (d *Driver) refMonitorCRV(cache map[constraint.Constraint]int) constraint.Vector {
	clear(cache)
	var vec constraint.Vector
	var lost constraint.DimMask
	for _, w := range d.Workers() {
		for _, e := range w.Queue() {
			cs := e.Job.Constraints
			if len(cs) == 0 {
				continue
			}
			for _, c := range cs {
				n, ok := cache[c]
				if !ok {
					n = d.LiveSupplyOne(c)
					cache[c] = n
				}
				if n == 0 {
					lost = lost.With(c.Dim)
					continue
				}
				vec.Set(c.Dim, vec.Get(c.Dim)+1/float64(n))
			}
		}
	}
	return clampLost(vec, lost)
}

// refDirectCRV is the telemetry recorder's and the admission controller's
// former scan: LiveSupplyOne per queued entry-constraint.
func (d *Driver) refDirectCRV() constraint.Vector {
	var vec constraint.Vector
	var lost constraint.DimMask
	for _, w := range d.Workers() {
		for _, e := range w.Queue() {
			for _, c := range e.Job.Constraints {
				n := d.LiveSupplyOne(c)
				if n == 0 {
					lost = lost.With(c.Dim)
					continue
				}
				vec.Set(c.Dim, vec.Get(c.Dim)+1/float64(n))
			}
		}
	}
	return clampLost(vec, lost)
}

func clampLost(vec constraint.Vector, lost constraint.DimMask) constraint.Vector {
	for _, dim := range constraint.Dims {
		if lost.Has(dim) {
			vec.Set(dim, constraint.SupplyLostRatio)
		}
	}
	return vec
}

// heartbeatReads returns one beat's three CRV reads for both sides: the
// candidate first invalidates the memo, as the queue mutations between two
// beats do.
func heartbeatReads(d *Driver) (memo, reference func() [3]constraint.Vector) {
	cache := make(map[constraint.Constraint]int)
	memo = func() [3]constraint.Vector {
		d.soa.queueEpoch++
		return [3]constraint.Vector{d.QueueCRV(), d.QueueCRV(), d.QueueCRV()}
	}
	reference = func() [3]constraint.Vector {
		return [3]constraint.Vector{d.refMonitorCRV(cache), d.refDirectCRV(), d.refDirectCRV()}
	}
	return memo, reference
}

var sinkCRV [3]constraint.Vector

func BenchmarkHeartbeatCRV(b *testing.B) {
	for _, regime := range []struct {
		name   string
		outage bool
	}{{"up", false}, {"outage", true}} {
		d := newHeartbeatFixture(b, regime.outage)
		memo, reference := heartbeatReads(d)
		for _, bc := range []struct {
			name string
			fn   func() [3]constraint.Vector
		}{{"memo", memo}, {"reference", reference}} {
			b.Run(regime.name+"/"+bc.name, func(b *testing.B) {
				sinkCRV = bc.fn() // warm the reference's map
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sinkCRV = bc.fn()
				}
			})
		}
	}
}

// TestHeartbeatCRVMatchesReference pins the benchmark's two sides to the
// same bits on the outage fixture (a non-zero CRV with a lost dimension)
// and holds the contract the benchmark reports: neither allocates.
func TestHeartbeatCRVMatchesReference(t *testing.T) {
	d := newHeartbeatFixture(t, true)
	memo, reference := heartbeatReads(d)
	got, want := memo(), reference()
	lost := false
	for i := range got {
		for _, dim := range constraint.Dims {
			g, w := got[i].Get(dim), want[i].Get(dim)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("read %d, %s: QueueCRV %v, reference %v", i, dim, g, w)
			}
			lost = lost || w == constraint.SupplyLostRatio
		}
	}
	if _, m := want[0].Max(); m == 0 || !lost {
		t.Fatalf("fixture too light: max CRV %v, lost dimension %v", m, lost)
	}
	for name, fn := range map[string]func() [3]constraint.Vector{"memo": memo, "reference": reference} {
		if n := testing.AllocsPerRun(20, func() { sinkCRV = fn() }); n != 0 {
			t.Errorf("%s: %v allocs per beat, want 0", name, n)
		}
	}
}
