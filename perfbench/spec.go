package main

import "encoding/json"

// runSeconds is how long one benchmark invocation measures.
const runSeconds = 30

// metricDef defines one reported metric. Bound, for end-to-end metrics
// only, is the share of the baseline median by which the metric may worsen
// before a change counts as a regression.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func e2e(name, unit string, bound float64) metricDef {
	return metricDef{Name: name, Unit: unit, Better: "lower", Bound: &bound}
}

// endToEnd are the figures a user of the simulator pays for one run,
// measured on untraced runs.
var endToEnd = []metricDef{
	e2e("setup_s", "s", 0.25),
	e2e("run_rel", "ref", 0.25),
	e2e("cpu_rel", "ref", 0.25),
	e2e("alloc_mb", "MB", 0.25),
	e2e("allocs_k", "k", 0.15),
	e2e("peak_rss_mb", "MB", 0.1),
	e2e("window_rel.p90", "ref", 0.25),
}

func layerMetric(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

// hookMetrics are the per-layer figures of one timed scheduler hook.
func hookMetrics(name string, tails ...string) []metricDef {
	defs := []metricDef{
		layerMetric(name+".calls", "count", "lower"),
		layerMetric(name+".total_s", "s", "lower"),
		layerMetric(name+".share", "ratio", "lower"),
	}
	for _, t := range tails {
		unit := t[len(t)-2:]
		defs = append(defs, layerMetric(name+"."+t, unit, "lower"))
	}
	return defs
}

// perLayer are the figures of single layers, measured on traced runs and
// their untraced and attach-toggled counterparts. README.md says which
// end-to-end metric each should move, on which workload.
var perLayer = concat(
	hookMetrics("sched.submit_long", "p50_us", "p99_us"),
	hookMetrics("sched.submit_short", "p50_us", "p99_us"),
	hookMetrics("core.heartbeat", "p50_ms", "p90_ms"),
	hookMetrics("core.task_start"),
	hookMetrics("core.sticky"),
	[]metricDef{
		layerMetric("window_host_ms.p50", "ms", "lower"),
		layerMetric("sched.driver_self_s", "s", "lower"),
		layerMetric("sched.driver_self.share", "ratio", "lower"),
		layerMetric("queueing.estimate_wait_ns", "ns", "lower"),
		layerMetric("sched.enqueue_tasks", "count", "lower"),
		layerMetric("sched.enqueue_probes", "count", "lower"),
		layerMetric("sched.dispatches", "count", "lower"),
		layerMetric("sched.stale_probes", "count", "lower"),
		layerMetric("sched.migrations", "count", "lower"),
		layerMetric("sched.probe_useful_ratio", "ratio", "higher"),
		layerMetric("cluster.match_hits", "count", "higher"),
		layerMetric("cluster.match_misses", "count", "lower"),
		layerMetric("cluster.match_hit_ratio", "ratio", "higher"),
		layerMetric("core.rescheduled_probes", "count", "lower"),
		layerMetric("core.crv_reordered", "count", "lower"),
		layerMetric("core.marked_workers.mean", "count", "lower"),
		layerMetric("telemetry.recorder_cost_s", "s", "lower"),
		layerMetric("telemetry.render_s", "s", "lower"),
		layerMetric("validate.cost_s", "s", "lower"),
		layerMetric("validate.events", "count", "lower"),
		layerMetric("validate.finalize_s", "s", "lower"),
		layerMetric("admission.beats", "count", "lower"),
		layerMetric("admission.transitions", "count", "lower"),
		layerMetric("admission.relaxed_dim_beats", "count", "lower"),
		layerMetric("metrics.digest_s", "s", "lower"),
		layerMetric("trace.generate_s", "s", "lower"),
		layerMetric("cluster.generate_s", "s", "lower"),
		layerMetric("sched.new_driver_s", "s", "lower"),
		layerMetric("runtime.gc_cycles", "count", "lower"),
		layerMetric("runtime.gc_cpu_s", "s", "lower"),
		layerMetric("bench.run_s", "s", "lower"),
		layerMetric("bench.cpu_s", "s", "lower"),
		layerMetric("bench.window_host_ms.p90", "ms", "lower"),
		layerMetric("bench.ref_s", "s", "lower"),
		layerMetric("bench.traced_run_s", "s", "lower"),
		layerMetric("bench.trace_overhead_s", "s", "lower"),
	},
)

func concat(parts ...[]metricDef) []metricDef {
	var out []metricDef
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// specJSON renders the benchmark definition, BENCHMARK.json at the root of
// the repository.
func specJSON() []byte {
	type workloadDef struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	spec := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, workloadDef{w.name, w.why})
	}
	out, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		panic(err) // the definition is static data
	}
	return append(out, '\n')
}
