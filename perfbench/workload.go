package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/phoenix-sched/phoenix/internal/admission"
	"github.com/phoenix-sched/phoenix/internal/cluster"
	"github.com/phoenix-sched/phoenix/internal/core"
	"github.com/phoenix-sched/phoenix/internal/experiments"
	"github.com/phoenix-sched/phoenix/internal/faults"
	metricspkg "github.com/phoenix-sched/phoenix/internal/metrics"
	"github.com/phoenix-sched/phoenix/internal/sched"
	"github.com/phoenix-sched/phoenix/internal/simulation"
	"github.com/phoenix-sched/phoenix/internal/telemetry"
	"github.com/phoenix-sched/phoenix/internal/trace"
	"github.com/phoenix-sched/phoenix/internal/validate"
)

// Fixed inputs every workload shares with the phoenix-sim reference runs.
const (
	// defaultSeed is the trace seed the digests are pinned at (the CLI's
	// -trace-seed default); --seed replaces it for held-out runs.
	defaultSeed = 1000
	// simSeed is the simulation seed of the reference runs (-seed 7).
	simSeed = 7
	// machineSeed and machineStream generate the cluster as the CLI does.
	machineSeed   = 42
	machineStream = "cli/machines"
	profile       = "google"
	// windowLen is the simulated length of one host-cost window.
	windowLen = 10 * simulation.Second
	// scenarioPath is the fault campaign of the service workload, relative
	// to the checkout root the benchmark runs from.
	scenarioPath = "scenarios/supply-loss.json"
)

// workload is one benchmark input. README.md gives the reasons behind each.
type workload struct {
	name, why string
	scheduler string
	scale     float64
	// service selects the open-loop service mode: bursty arrivals, the
	// supply-loss campaign, the admission controller, telemetry and the
	// invariant checker, admitting jobs for horizon simulated seconds.
	service bool
	horizon float64
	// pinned is the run digest at defaultSeed.
	pinned string
}

var workloads = []workload{
	{
		name:      "batch-phoenix-google",
		why:       "the ROADMAP reference run: central placement, the CRV heartbeat, the event queue and GC all carry weight",
		scheduler: "phoenix",
		scale:     1.0,
		pinned:    "cdcc1abac4aa9fe2",
	},
	{
		name:      "batch-sparrow-google",
		why:       "same inputs without central placer, heartbeat or CRV: the bypass for those layers, the main stage for queue and driver",
		scheduler: "sparrow-c",
		scale:     1.0,
		pinned:    "b0b17b420b7a445f",
	},
	{
		name:      "service-phoenix-supplyloss",
		why:       "heartbeat-driven layers dominate under a constraint outage; the only workload with telemetry, validate, faults and admission",
		scheduler: "phoenix",
		scale:     0.15,
		service:   true,
		horizon:   900,
		pinned:    "27999475d5256a0a",
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// variant is how one run departs from its workload's definition.
type variant string

const (
	// plain runs the workload as defined; the end-to-end metrics come
	// from it.
	plain variant = "plain"
	// traced adds the timing decorator and the counting observer.
	traced variant = "traced"
	// checkFlip toggles the invariant checker: on for the batch
	// workloads, which run without it, off for the service workload.
	checkFlip variant = "check-flip"
	// recorderOff detaches the telemetry Recorder (service only).
	recorderOff variant = "recorder-off"
)

// instance is one assembled run, ready to execute.
type instance struct {
	w     workload
	cl    *cluster.Cluster
	d     *sched.Driver
	inner sched.Scheduler
	tr    *tracer
	cnt   *counter
	chk   *validate.Checker
	rec   *telemetry.Recorder
	win   *telemetry.WindowRecorder
	ctl   *admission.Controller

	markedSum, beats int
	runTime          time.Duration
	// lastTick and windows track host time per simulated window.
	lastTick time.Time
	windows  []float64
}

// setup assembles a run from the same public calls phoenix-sim makes and
// appends the time of each step to times.
func setup(w workload, seed uint64, v variant, times map[string][]float64) (*instance, error) {
	record := func(step string, t time.Time) { times[step] = append(times[step], since(t)) }
	begin := time.Now()
	in := &instance{w: w}
	prof, err := cluster.ProfileByName(profile)
	if err != nil {
		return nil, err
	}
	cfg, err := trace.ConfigByName(profile, w.scale)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	in.cl, err = prof.GenerateCluster(cfg.NumNodes, simulation.NewRNG(machineSeed).Stream(machineStream))
	if err != nil {
		return nil, err
	}
	record("cluster.generate_s", t)

	t = time.Now()
	var tr *trace.Trace
	var src *trace.ArrivalSource
	if w.service {
		src, err = trace.NewArrivalSource(cfg, trace.ArrivalConfig{Kind: trace.ArrivalBursty, RateMultiplier: 1}, in.cl, seed)
	} else {
		tr, err = trace.Generate(cfg, in.cl, seed)
	}
	if err != nil {
		return nil, err
	}
	record("trace.generate_s", t)

	t = time.Now()
	opts := experiments.DefaultOptions()
	in.inner, err = opts.NewScheduler(w.scheduler)
	if err != nil {
		return nil, err
	}
	s := in.inner
	if v == traced {
		if s, in.tr, err = newTracer(in.inner); err != nil {
			return nil, err
		}
	}
	if w.service {
		in.d, err = sched.NewServiceDriver(sched.DefaultConfig(), in.cl, src, s, simSeed)
	} else {
		in.d, err = sched.NewDriver(sched.DefaultConfig(), in.cl, tr, s, simSeed)
	}
	if err != nil {
		return nil, err
	}
	record("sched.new_driver_s", t)

	if w.service != (v == checkFlip) {
		in.chk = validate.Attach(in.d)
	}
	if w.service {
		// Bounded memory, as in the CLI; the digest is the same either way.
		in.d.Collector().DropJobRecords()
		sc, err := faults.LoadScenario(scenarioPath)
		if err != nil {
			return nil, err
		}
		if _, err := faults.Attach(in.d, sc); err != nil {
			return nil, err
		}
		if in.ctl, err = admission.Attach(in.d, admission.DefaultConfig()); err != nil {
			return nil, err
		}
		in.win = telemetry.AttachWindows(in.d, telemetry.WindowOptions{Interval: windowLen})
		if v != recorderOff {
			topts := telemetry.Options{CRVThreshold: opts.Phoenix.CRVThreshold, Admission: in.ctl}
			// The sources are the inner scheduler, never the decorator.
			if c, ok := in.inner.(telemetry.CRVSource); ok {
				topts.CRV = c
			}
			if g, ok := in.inner.(telemetry.GangSource); ok {
				topts.Gang = g
			}
			in.rec = telemetry.Attach(in.d, topts)
		}
	}
	if v == traced {
		in.cnt = &counter{}
		in.d.AttachObserver(in.cnt)
		if ps, ok := in.inner.(*core.Scheduler); ok {
			in.tr.afterBeat = func() {
				in.markedSum += ps.Monitor().MarkedCount()
				in.beats++
			}
		}
	}
	// Driver.Every is passive and keeps the digest byte-identical.
	in.d.Every(windowLen, in.tick)
	record("setup_s", begin)
	return in, nil
}

// tick records the host time of the simulated window that just closed.
func (in *instance) tick(simulation.Time) bool {
	if in.done() {
		return false
	}
	now := time.Now()
	in.windows = append(in.windows, float64(now.Sub(in.lastTick))/float64(time.Millisecond))
	in.lastTick = now
	return true
}

func (in *instance) done() bool {
	if in.w.service {
		return in.d.ServiceDone()
	}
	return in.d.Collector().JobsAdded() == len(in.d.Trace().Jobs)
}

// runtimeSamples are read before and after the run; their differences are
// the run's allocation and GC figures.
var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// RUSAGE_SELF cannot fail for the calling process.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user plus system time so far.
func cpuSeconds() float64 {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's resident-set high-water mark so far (VmHWM).
func peakRSSMB() float64 {
	return float64(rusage().Maxrss) / 1024 // Linux reports KiB
}

// run executes the assembled run, adds its measurements to m and returns
// the run digest. A run error or a checker violation is an error.
func (in *instance) run(m map[string]float64) (uint64, error) {
	runtime.GC() // leave set-up garbage out of the measured run
	hits0, misses0 := in.cl.Matches().Stats()
	rt0, cpu0 := readRuntime(), cpuSeconds()
	begin := time.Now()
	in.lastTick = begin
	if in.tr != nil {
		in.tr.origin = begin
	}
	var col *metricspkg.Collector
	if in.w.service {
		res, err := in.d.RunService(context.Background(), simulation.FromSeconds(in.w.horizon))
		if err != nil {
			return 0, err
		}
		col = res.Collector
	} else {
		res, err := in.d.Run()
		if err != nil {
			return 0, err
		}
		col = res.Collector
	}
	in.runTime = time.Since(begin)
	cpu1, rt1 := cpuSeconds(), readRuntime()
	m["peak_rss_mb"] = peakRSSMB()
	hits1, misses1 := in.cl.Matches().Stats()

	m["run_s"] = in.runTime.Seconds()
	m["cpu_s"] = cpu1 - cpu0
	m["alloc_mb"] = (rt1[0] - rt0[0]) / (1 << 20)
	m["allocs_k"] = (rt1[1] - rt0[1]) / 1e3
	m["runtime.gc_cycles"] = rt1[2] - rt0[2]
	m["runtime.gc_cpu_s"] = rt1[3] - rt0[3]
	win := sortedCopy(in.windows)
	m["windows"] = float64(len(win))
	m["window_host_ms.p50"] = percentile(win, 50)
	m["window_host_ms.p90"] = percentile(win, 90)

	hits, misses := float64(hits1-hits0), float64(misses1-misses0)
	m["cluster.match_hits"] = hits
	m["cluster.match_misses"] = misses
	m["cluster.match_hit_ratio"] = ratio(hits, hits+misses)
	m["core.rescheduled_probes"] = float64(col.RescheduledProbes)
	m["core.crv_reordered"] = float64(col.CRVReorderedTasks)

	t := time.Now()
	digest := col.Digest()
	if in.w.service {
		digest = col.ServiceDigest()
	}
	m["metrics.digest_s"] = since(t)

	m["validate.events"], m["validate.finalize_s"] = 0, 0
	if in.chk != nil {
		t = time.Now()
		err := in.chk.Finalize()
		m["validate.finalize_s"] = since(t)
		m["validate.events"] = float64(in.chk.Events())
		if err != nil {
			return digest, err
		}
	}
	m["telemetry.render_s"] = 0
	if in.rec != nil {
		t = time.Now()
		_, _ = in.rec.CSV(), in.win.WindowCSV()
		m["telemetry.render_s"] = since(t)
	}
	m["admission.beats"], m["admission.transitions"], m["admission.relaxed_dim_beats"] = 0, 0, 0
	if in.ctl != nil {
		m["admission.beats"] = float64(in.ctl.Beats())
		m["admission.transitions"] = float64(in.ctl.ControllerTransitions())
		m["admission.relaxed_dim_beats"] = float64(in.ctl.RelaxedDimBeats())
	}
	if in.tr != nil {
		in.layerMetrics(m)
	}
	return digest, nil
}

// layerMetrics adds the traced run's per-layer figures to m. A percentile
// metric named in perLayer, such as sched.submit_long.p99_us, is 0 when the
// layer has too few calls to report it (see tailPercentile).
func (in *instance) layerMetrics(m map[string]float64) {
	run := in.runTime.Seconds()
	for l, ls := range in.tr.stats() {
		name := layerNames[l]
		m[name+".calls"] = float64(ls.calls)
		m[name+".total_s"] = ls.total.Seconds()
		m[name+".share"] = ratio(ls.total.Seconds(), run)
		for _, d := range perLayer {
			tail, ok := strings.CutPrefix(d.Name, name+".p")
			if !ok {
				continue
			}
			pct, unit, _ := strings.Cut(tail, "_")
			p, err := strconv.ParseFloat(pct, 64)
			if err != nil || !supports(ls.calls, p) {
				m[d.Name] = 0
				continue
			}
			m[d.Name] = percentile(ls.sorted, p) * map[string]float64{"us": 1e6, "ms": 1e3}[unit]
		}
	}
	self := (in.runTime - in.tr.covered()).Seconds()
	m["sched.driver_self_s"] = self
	m["sched.driver_self.share"] = ratio(self, run)

	c := in.cnt
	m["sched.enqueue_tasks"] = float64(c.enqTasks)
	m["sched.enqueue_probes"] = float64(c.enqProbes)
	m["sched.dispatches"] = float64(c.dispatches)
	m["sched.stale_probes"] = float64(c.stale)
	m["sched.migrations"] = float64(c.migrations)
	m["sched.probe_useful_ratio"] = ratio(float64(c.probeDispatches), float64(c.enqProbes))
	m["core.marked_workers.mean"] = ratio(float64(in.markedSum), float64(in.beats))
	m["queueing.estimate_wait_ns"] = estimateWaitNs(in.d.Workers())
}

// estimateWaitNs times the pure P-K estimator over every worker's
// end-of-run state and returns the median ns per call over several passes.
func estimateWaitNs(ws []*sched.Worker) float64 {
	const passes = 21
	per := make([]float64, passes)
	var sink float64
	for p := range per {
		t := time.Now()
		for _, w := range ws {
			wait, _ := w.Estimator.EstimateWait()
			sink += wait
		}
		per[p] = float64(time.Since(t).Nanoseconds()) / float64(len(ws))
	}
	if sink < 0 {
		per[0] = sink // keeps the calls from being optimized away
	}
	return median(per)
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
