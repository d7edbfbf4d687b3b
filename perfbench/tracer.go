package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/phoenix-sched/phoenix/internal/sched"
	"github.com/phoenix-sched/phoenix/internal/simulation"
	"github.com/phoenix-sched/phoenix/internal/trace"
)

// layer names one scheduler hook the tracer times.
type layer uint8

const (
	submitLong layer = iota
	submitShort
	heartbeat
	idle
	complete
	sticky
	taskStart
	numLayers
)

// layerNames are the span names, which the per-layer metrics reuse.
var layerNames = [numLayers]string{
	submitLong:  "sched.submit_long",
	submitShort: "sched.submit_short",
	heartbeat:   "core.heartbeat",
	idle:        "sched.idle",
	complete:    "sched.complete",
	sticky:      "core.sticky",
	taskStart:   "core.task_start",
}

// span is one timed hook call; times are offsets from the run span's start.
// Every hook span's parent is the run span; req is the job ID (-1 for a
// heartbeat, which serves no one job).
type span struct {
	layer      layer
	start, end time.Duration
	req        int
}

// tracer decorates a scheduler with one span per hook call. It is the
// common core of every decorator newTracer builds: Name, Init and SubmitJob
// live here, and each optional hook lives on its own small type so that a
// decorator can carry exactly the hooks of the scheduler it wraps.
type tracer struct {
	inner  sched.Scheduler
	hb     sched.HeartbeatHandler
	idle   sched.IdleHandler
	comp   sched.CompletionHandler
	sticky sched.StickyProvider
	start  sched.StartObserver

	origin time.Time
	spans  []span
	// afterBeat, when set, runs after each heartbeat span has closed, so
	// that sampling the scheduler's state is not billed to the hook.
	afterBeat func()
}

// Hook bits, one per optional interface sched.NewDriver type-sniffs.
const (
	hookHeartbeat = 1 << iota
	hookIdle
	hookComplete
	hookSticky
	hookStart
)

// hookSet reports which optional driver hooks s implements.
func hookSet(s sched.Scheduler) int {
	set := 0
	if _, ok := s.(sched.HeartbeatHandler); ok {
		set |= hookHeartbeat
	}
	if _, ok := s.(sched.IdleHandler); ok {
		set |= hookIdle
	}
	if _, ok := s.(sched.CompletionHandler); ok {
		set |= hookComplete
	}
	if _, ok := s.(sched.StickyProvider); ok {
		set |= hookSticky
	}
	if _, ok := s.(sched.StartObserver); ok {
		set |= hookStart
	}
	return set
}

// newTracer wraps inner in a timing decorator that implements exactly the
// optional hooks inner implements. The driver resolves hooks by type
// assertion, so an extra hook changes the run: an extra CompletionHandler,
// for one, switches sticky probing off. Go cannot assemble a type at run
// time, so each hook set in use needs its own case below; a scheduler with
// a new combination is refused rather than run with the wrong hooks.
func newTracer(inner sched.Scheduler) (sched.Scheduler, *tracer, error) {
	t := &tracer{inner: inner}
	t.hb, _ = inner.(sched.HeartbeatHandler)
	t.idle, _ = inner.(sched.IdleHandler)
	t.comp, _ = inner.(sched.CompletionHandler)
	t.sticky, _ = inner.(sched.StickyProvider)
	t.start, _ = inner.(sched.StartObserver)
	hb, id, co, st, so := hbHook{t}, idleHook{t}, completeHook{t}, stickyHook{t}, startHook{t}
	switch set := hookSet(inner); set {
	case 0:
		return t, t, nil
	case hookIdle:
		return struct {
			*tracer
			idleHook
		}{t, id}, t, nil
	case hookSticky:
		return struct {
			*tracer
			stickyHook
		}{t, st}, t, nil
	case hookHeartbeat | hookSticky | hookStart:
		return struct {
			*tracer
			hbHook
			stickyHook
			startHook
		}{t, hb, st, so}, t, nil
	case hookHeartbeat | hookIdle | hookComplete | hookSticky | hookStart:
		return struct {
			*tracer
			hbHook
			idleHook
			completeHook
			stickyHook
			startHook
		}{t, hb, id, co, st, so}, t, nil
	default:
		return nil, nil, fmt.Errorf("tracer: no decorator for %s's hook set %05b; add a case to newTracer", inner.Name(), set)
	}
}

// Name implements sched.Scheduler; the decorator keeps the inner name so
// results and digests do not change.
func (t *tracer) Name() string { return t.inner.Name() }

// Init implements sched.Scheduler.
func (t *tracer) Init(d *sched.Driver) error { return t.inner.Init(d) }

// SubmitJob implements sched.Scheduler, split into long jobs (central
// placement) and short jobs (probe sampling) by the driver's classification.
func (t *tracer) SubmitJob(d *sched.Driver, js *sched.JobState) {
	l := submitShort
	if !js.Short {
		l = submitLong
	}
	start := time.Since(t.origin)
	t.inner.SubmitJob(d, js)
	t.close(l, start, js.Job.ID)
}

func (t *tracer) close(l layer, start time.Duration, req int) {
	t.spans = append(t.spans, span{layer: l, start: start, end: time.Since(t.origin), req: req})
}

type hbHook struct{ t *tracer }

// OnHeartbeat implements sched.HeartbeatHandler.
func (h hbHook) OnHeartbeat(d *sched.Driver, now simulation.Time) {
	start := time.Since(h.t.origin)
	h.t.hb.OnHeartbeat(d, now)
	h.t.close(heartbeat, start, -1)
	if h.t.afterBeat != nil {
		h.t.afterBeat()
	}
}

type idleHook struct{ t *tracer }

// OnWorkerIdle implements sched.IdleHandler.
func (h idleHook) OnWorkerIdle(d *sched.Driver, w *sched.Worker) {
	start := time.Since(h.t.origin)
	h.t.idle.OnWorkerIdle(d, w)
	h.t.close(idle, start, -1)
}

type completeHook struct{ t *tracer }

// OnTaskComplete implements sched.CompletionHandler.
func (h completeHook) OnTaskComplete(d *sched.Driver, w *sched.Worker, js *sched.JobState, task *trace.Task) {
	start := time.Since(h.t.origin)
	h.t.comp.OnTaskComplete(d, w, js, task)
	h.t.close(complete, start, js.Job.ID)
}

type stickyHook struct{ t *tracer }

// NextSticky implements sched.StickyProvider.
func (h stickyHook) NextSticky(d *sched.Driver, w *sched.Worker, js *sched.JobState) *trace.Task {
	start := time.Since(h.t.origin)
	next := h.t.sticky.NextSticky(d, w, js)
	h.t.close(sticky, start, js.Job.ID)
	return next
}

type startHook struct{ t *tracer }

// OnTaskStart implements sched.StartObserver.
func (h startHook) OnTaskStart(d *sched.Driver, w *sched.Worker, e *sched.Entry, wait simulation.Time) {
	start := time.Since(h.t.origin)
	h.t.start.OnTaskStart(d, w, e, wait)
	h.t.close(taskStart, start, e.Job.Job.ID)
}

// layerStats summarizes the spans of one layer.
type layerStats struct {
	calls int
	total time.Duration
	// sorted holds the span durations in seconds, ascending.
	sorted []float64
}

// stats groups the spans by layer.
func (t *tracer) stats() [numLayers]layerStats {
	var out [numLayers]layerStats
	for _, s := range t.spans {
		ls := &out[s.layer]
		ls.calls++
		ls.total += s.end - s.start
		ls.sorted = append(ls.sorted, (s.end - s.start).Seconds())
	}
	for i := range out {
		sort.Float64s(out[i].sorted)
	}
	return out
}

// covered returns how much of the run the hook spans cover, counting any
// overlap once, so that run time minus covered is the driver's self time.
func (t *tracer) covered() time.Duration {
	iv := append([]span(nil), t.spans...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
	var total, curStart, curEnd time.Duration
	open := false
	for _, s := range iv {
		if open && s.start <= curEnd {
			curEnd = max(curEnd, s.end)
			continue
		}
		if open {
			total += curEnd - curStart
		}
		curStart, curEnd, open = s.start, s.end, true
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// writeSpans writes the run span and every hook span as CSV: id, parent,
// name, start and end in ns from the run's start, and request (job) ID.
func (t *tracer) writeSpans(path string, run time.Duration) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,start_ns,end_ns,request_id")
	fmt.Fprintf(w, "1,0,run,0,%d,-1\n", run.Nanoseconds())
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,1,%s,%d,%d,%d\n", i+2, layerNames[s.layer], s.start.Nanoseconds(), s.end.Nanoseconds(), s.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counter is a passive observer counting the driver's queue traffic at the
// boundary where it happens.
type counter struct {
	sched.NopObserver
	enqTasks, enqProbes         int
	dispatches, probeDispatches int
	stale, migrations           int
}

// OnEnqueue implements sched.Observer.
func (c *counter) OnEnqueue(_ *sched.Driver, _ *sched.Worker, e *sched.Entry) {
	if e.IsProbe() {
		c.enqProbes++
	} else {
		c.enqTasks++
	}
}

// OnDequeue implements sched.Observer.
func (c *counter) OnDequeue(_ *sched.Driver, _ *sched.Worker, e *sched.Entry, reason sched.DequeueReason) {
	switch reason {
	case sched.DequeueDispatch:
		c.dispatches++
		if e.IsProbe() {
			c.probeDispatches++
		}
	case sched.DequeueStale:
		c.stale++
	case sched.DequeueMigrate:
		c.migrations++
	}
}
