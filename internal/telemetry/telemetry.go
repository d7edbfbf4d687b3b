// Package telemetry is the time-series observability layer for simulation
// runs: it samples, once per interval of virtual time, the signals that
// explain *why* a run's tail latencies move — per-dimension CRV
// demand/supply ratios, per-worker Pollaczek–Khinchin waiting-time
// estimates versus the waits tasks actually experienced, queue depths,
// slot utilization, and the scheduler's reorder/bypass/relaxation counter
// deltas — and streams task latencies through a compact fixed-bucket
// Histogram so p50/p90/p99 are available without storing every sample.
//
// The layer is strictly scheduler-invisible. A Recorder attaches to a
// sched.Driver as a passive Observer plus a periodic engine tick; it never
// mutates driver, worker, or job state, never draws from a random stream,
// and its tick events cannot reorder existing events (equal-time events
// run in insertion order, and the recorder inserts only its own ticks).
// Consequently a run with telemetry attached produces a byte-identical
// metrics digest to the same-seed run without it — the property the test
// suite asserts for every bundled scheduler — and two same-seed
// telemetry runs emit byte-identical time series.
//
// Output comes in two forms: WriteCSV emits the per-interval samples for
// plotting (the -timeseries CLI flag), and Report renders a self-contained
// Markdown run report — headline percentiles, the CRV trigger timeline,
// and a per-dimension contention table (the -report CLI flag).
package telemetry

import (
	"math"

	"github.com/phoenix-sched/phoenix/internal/constraint"
	"github.com/phoenix-sched/phoenix/internal/metrics"
	"github.com/phoenix-sched/phoenix/internal/sched"
	"github.com/phoenix-sched/phoenix/internal/simulation"
	"github.com/phoenix-sched/phoenix/internal/trace"
)

// DefaultCRVThreshold is the contention level the report's trigger
// timeline uses when the caller does not supply the scheduler's own
// threshold. It matches Phoenix's default CRV threshold.
const DefaultCRVThreshold = 0.25

// CRVSource, ShardCRVSource and GangSource are the scheduler views a
// Recorder samples; they are declared in sched, next to the hooks HooksOf
// resolves with them.
type (
	// CRVSource is the scheduler's own CRV state (sched.CRVSource).
	CRVSource = sched.CRVSource
	// ShardCRVSource is a per-shard CRV view (sched.ShardCRVSource).
	ShardCRVSource = sched.ShardCRVSource
	// GangSource is the waiting-gang gauge (sched.GangSource).
	GangSource = sched.GangSource
)

// AdmissionSource is implemented by admission-control policies that scope
// constraint relaxation per dimension (internal/admission's feedback
// controller and its static baseline). When a source is supplied, each
// sample records how many dimensions were relaxed at the sample time and
// the interval's controller state transitions — the relaxed_dims and
// controller_transitions CSV columns — and the report gains an admission
// section. The methods must be read-only.
type AdmissionSource interface {
	// RelaxedDims returns the mask of currently relaxed dimensions.
	RelaxedDims() constraint.DimMask
	// ControllerTransitions returns the cumulative transition count.
	ControllerTransitions() int64
	// RelaxedDimBeats returns the cumulative relaxed dimension-beats.
	RelaxedDimBeats() int64
}

// Options configure a Recorder.
type Options struct {
	// Interval is the sampling cadence in virtual time; zero or negative
	// means the driver's heartbeat interval.
	Interval simulation.Time
	// CRV optionally supplies the scheduler's own CRV state (see
	// CRVSource). Nil is valid for schedulers without one.
	CRV CRVSource
	// CRVThreshold is the contention level the report's trigger timeline
	// and per-dimension table classify against; zero means
	// DefaultCRVThreshold.
	CRVThreshold float64
	// Gang optionally supplies the scheduler's waiting-gang gauge (see
	// GangSource). Nil is valid for schedulers without gang support.
	Gang GangSource
	// Admission optionally supplies the admission controller's state (see
	// AdmissionSource). Nil is valid for runs without admission control.
	Admission AdmissionSource
	// MaxSamples bounds the retained time series: once full, each new
	// sample overwrites the oldest (a ring), so recorder memory stays
	// constant over an unbounded service run. Zero retains every sample
	// (the batch default). The streamed histograms are unaffected — they
	// are bounded by construction.
	MaxSamples int
}

// Sample is one per-interval snapshot. Instantaneous fields (queue depths,
// estimates, CRV) are read at the sample time; windowed fields (waits,
// counter deltas) cover the interval since the previous sample.
type Sample struct {
	// Time is the virtual time of the snapshot.
	Time simulation.Time

	// CRV is the queue-derived Constraint Resource Vector at the sample
	// time: per dimension, every queued constrained entry contributes
	// 1/(live workers able to satisfy the constraint). It is
	// sched.Driver.QueueCRV, the vector Phoenix's monitor reads, and is
	// comparable across all schedulers.
	CRV constraint.Vector
	// MaxCRVDim is the most contended dimension (meaningless when MaxCRV
	// is zero).
	MaxCRVDim constraint.Dim
	// MaxCRV is the largest CRV element.
	MaxCRV float64
	// MonitorHot reports the scheduler's own contention switch, when a
	// CRVSource was supplied (false otherwise).
	MonitorHot bool
	// CongestedWorkers is the scheduler-reported congested-worker count,
	// when a CRVSource was supplied (0 otherwise).
	CongestedWorkers int
	// ShardMaxCRV is the per-shard maximum CRV element, when the CRV
	// source also implements ShardCRVSource (nil otherwise). Index k is
	// shard k; the length is fixed over a run.
	ShardMaxCRV []float64
	// GangsWaiting is the number of gang jobs waiting on reservations at
	// the sample time, when a GangSource was supplied (0 otherwise).
	GangsWaiting int
	// RelaxedDims is how many constraint dimensions the admission policy
	// held relaxed at the sample time, when an AdmissionSource was
	// supplied (0 otherwise).
	RelaxedDims int
	// ControllerTransitions is the number of admission-controller state
	// transitions in the interval since the previous sample, when an
	// AdmissionSource was supplied (0 otherwise).
	ControllerTransitions int64

	// QueuedEntries is the total queue depth across workers.
	QueuedEntries int
	// QueuedProbes is how many of the queued entries are late-binding
	// probes.
	QueuedProbes int
	// BusyWorkers counts occupied execution slots.
	BusyWorkers int
	// FailedWorkers counts workers currently down.
	FailedWorkers int
	// SlowedWorkers counts workers running under an injected service-rate
	// slowdown (sched.Worker.Slowed).
	SlowedWorkers int
	// SaturatedWorkers counts workers whose waiting-time estimator
	// reports an unstable queue (rho >= 1, expected wait unbounded).
	SaturatedWorkers int
	// MeanEstWaitSeconds is the mean P-K waiting-time estimate over the
	// non-saturated workers, NaN when every estimator is saturated.
	MeanEstWaitSeconds float64
	// MaxEstWaitSeconds is the largest finite P-K estimate.
	MaxEstWaitSeconds float64

	// StartedTasks counts dispatches in the interval.
	StartedTasks int
	// MeanWaitSeconds is the mean realized queue wait of the interval's
	// dispatches, NaN when none started.
	MeanWaitSeconds float64
	// MaxWaitSeconds is the largest realized queue wait in the interval.
	MaxWaitSeconds float64
	// MeanAbsEstErrSeconds is the mean |estimate - realized| over the
	// interval's dispatches whose worker had a finite estimate at start
	// time, NaN when there were none.
	MeanAbsEstErrSeconds float64
	// FinishedJobs counts job completions in the interval.
	FinishedJobs int

	// Counters holds the interval's deltas of the scheduler counters
	// (reorders, probes, steals, reschedules, relaxations, failures).
	Counters metrics.CounterSnapshot
}

// Recorder samples a run. Construct with Attach; read the results after
// Driver.Run returns.
type Recorder struct {
	sched.NopObserver

	d       *sched.Driver
	opts    Options
	samples []Sample
	// shardSrc is opts.CRV's per-shard view when it has one (resolved once
	// at Attach); numShards caches its shard count for the CSV header.
	shardSrc  ShardCRVSource
	numShards int
	// head is the ring write position once len(samples) == MaxSamples;
	// totalSamples counts every sample ever taken, retained or not.
	head         int
	totalSamples int

	totalJobs     int
	finishedTotal int
	done          bool
	prev          metrics.CounterSnapshot
	// prevTransitions is the admission-transition total at the previous
	// sample, for the interval delta.
	prevTransitions int64

	// Interval accumulators, reset at each sample.
	started   int
	waitSum   float64
	waitMax   float64
	estErrSum float64
	estErrN   int
	finished  int

	waitHist *Histogram
	respHist *Histogram
}

var _ sched.Observer = (*Recorder)(nil)

// Attach instruments d with a new Recorder: it registers the recorder as a
// passive observer and arranges sampling ticks every opts.Interval of
// virtual time (the driver's heartbeat interval by default), stopping once
// the workload drains. Attach must be called before Driver.Run. Attaching
// telemetry never changes scheduling decisions, random-stream consumption,
// or the run digest.
func Attach(d *sched.Driver, opts Options) *Recorder {
	if opts.Interval <= 0 {
		opts.Interval = d.Config().Heartbeat
	}
	if opts.CRVThreshold <= 0 {
		opts.CRVThreshold = DefaultCRVThreshold
	}
	r := &Recorder{
		d:         d,
		opts:      opts,
		totalJobs: len(d.Trace().Jobs),
		waitHist:  NewLatencyHistogram(),
		respHist:  NewLatencyHistogram(),
	}
	if src, ok := opts.CRV.(ShardCRVSource); ok && src.NumShards() > 0 {
		r.shardSrc = src
		r.numShards = src.NumShards()
	}
	d.AttachObserver(r)
	d.Every(opts.Interval, r.tick)
	return r
}

// Interval reports the sampling cadence in use.
func (r *Recorder) Interval() simulation.Time { return r.opts.Interval }

// Samples returns the retained time series in time order. With unbounded
// retention the slice is shared (callers must not mutate it); once a
// MaxSamples ring has wrapped, a reassembled copy is returned.
func (r *Recorder) Samples() []Sample {
	if r.opts.MaxSamples <= 0 || r.totalSamples <= len(r.samples) || r.head == 0 {
		return r.samples
	}
	out := make([]Sample, 0, len(r.samples))
	out = append(out, r.samples[r.head:]...)
	out = append(out, r.samples[:r.head]...)
	return out
}

// TotalSamples reports how many samples were taken over the run, including
// those a full ring has already overwritten.
func (r *Recorder) TotalSamples() int { return r.totalSamples }

// WaitHistogram returns the streamed histogram of realized task queue
// waits, in seconds.
func (r *Recorder) WaitHistogram() *Histogram { return r.waitHist }

// ResponseHistogram returns the streamed histogram of job response times,
// in seconds.
func (r *Recorder) ResponseHistogram() *Histogram { return r.respHist }

// tick is the periodic sampling event; it keeps rescheduling itself until
// the workload drains — in batch mode until the final job has finished
// (the flush sample in OnJobFinish covers the last partial interval), in
// service mode until admission has closed and the queues have run down
// (OnDrain covers the final partial interval). Stopping is what lets the
// engine's event queue empty.
func (r *Recorder) tick(now simulation.Time) bool {
	if r.done || r.d.ServiceDone() {
		return false
	}
	r.sample(now)
	return true
}

// sample appends one snapshot at the given time and resets the interval
// accumulators. The CRV is the driver's memoized QueueCRV, so the tick
// shares one queue scan with the admission tick and the Phoenix heartbeat
// that fire at the same instant.
func (r *Recorder) sample(now simulation.Time) {
	s := Sample{Time: now, CRV: r.d.QueueCRV()}

	var estSum float64
	var estN int
	for _, w := range r.d.Workers() {
		for _, e := range w.Queue() {
			if e.IsProbe() {
				s.QueuedProbes++
			}
		}
		s.QueuedEntries += w.QueueLen()
		if !w.Idle() {
			s.BusyWorkers++
		}
		if w.Failed() {
			s.FailedWorkers++
		}
		if w.Slowed() {
			s.SlowedWorkers++
		}
		wait, saturated := w.Estimator.EstimateWait()
		if saturated {
			s.SaturatedWorkers++
			continue
		}
		estSum += wait
		estN++
		if wait > s.MaxEstWaitSeconds {
			s.MaxEstWaitSeconds = wait
		}
	}
	s.MaxCRVDim, s.MaxCRV = s.CRV.Max()
	if estN > 0 {
		s.MeanEstWaitSeconds = estSum / float64(estN)
	} else {
		s.MeanEstWaitSeconds = math.NaN()
	}
	if src := r.opts.CRV; src != nil {
		s.MonitorHot = src.CRVHot()
		s.CongestedWorkers = src.CongestedWorkers()
	}
	if r.shardSrc != nil {
		s.ShardMaxCRV = make([]float64, r.numShards)
		for k := range s.ShardMaxCRV {
			v := r.shardSrc.ShardCRV(k)
			_, s.ShardMaxCRV[k] = v.Max()
		}
	}
	if r.opts.Gang != nil {
		s.GangsWaiting = r.opts.Gang.GangsWaiting()
	}
	if src := r.opts.Admission; src != nil {
		s.RelaxedDims = src.RelaxedDims().Count()
		cur := src.ControllerTransitions()
		s.ControllerTransitions = cur - r.prevTransitions
		r.prevTransitions = cur
	}

	s.StartedTasks = r.started
	if r.started > 0 {
		s.MeanWaitSeconds = r.waitSum / float64(r.started)
	} else {
		s.MeanWaitSeconds = math.NaN()
	}
	s.MaxWaitSeconds = r.waitMax
	if r.estErrN > 0 {
		s.MeanAbsEstErrSeconds = r.estErrSum / float64(r.estErrN)
	} else {
		s.MeanAbsEstErrSeconds = math.NaN()
	}
	s.FinishedJobs = r.finished

	cur := r.d.Collector().Counters()
	s.Counters = cur.Sub(r.prev)
	r.prev = cur

	if r.opts.MaxSamples > 0 && len(r.samples) == r.opts.MaxSamples {
		r.samples[r.head] = s
		r.head = (r.head + 1) % r.opts.MaxSamples
	} else {
		r.samples = append(r.samples, s)
	}
	r.totalSamples++
	r.started = 0
	r.waitSum = 0
	r.waitMax = 0
	r.estErrSum = 0
	r.estErrN = 0
	r.finished = 0
}

// OnStart implements sched.Observer: record the realized queue wait and,
// when the worker's estimator has a finite estimate, the estimate error.
func (r *Recorder) OnStart(d *sched.Driver, w *sched.Worker, e *sched.Entry, _ *trace.Task) {
	wait := (d.Now() - e.Enqueued).Seconds()
	r.started++
	r.waitSum += wait
	if wait > r.waitMax {
		r.waitMax = wait
	}
	r.waitHist.Observe(wait)
	if est, saturated := w.Estimator.EstimateWait(); !saturated {
		r.estErrSum += math.Abs(est - wait)
		r.estErrN++
	}
}

// OnJobFinish implements sched.Observer: account the completion and, when
// it is the workload's last job, flush a final sample covering the partial
// interval so short runs still produce a non-empty series.
func (r *Recorder) OnJobFinish(d *sched.Driver, js *sched.JobState) {
	r.finished++
	r.finishedTotal++
	r.respHist.Observe((d.Now() - js.Job.Arrival).Seconds())
	if r.finishedTotal == r.totalJobs {
		r.sample(d.Now())
		r.done = true
	}
}

// OnDrain implements sched.DrainObserver: in service mode the run's end is
// signalled by the drain, not a known job count, so the final partial
// interval is flushed here — exactly once.
func (r *Recorder) OnDrain(d *sched.Driver, now simulation.Time) {
	if r.done {
		return
	}
	r.sample(now)
	r.done = true
}
