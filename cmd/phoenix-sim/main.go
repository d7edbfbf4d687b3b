// Command phoenix-sim runs one trace-driven scheduling simulation and
// prints the outcome: response-time and queuing-delay percentiles for
// short/long and constrained/unconstrained jobs, plus scheduler counters.
//
// Usage:
//
//	phoenix-sim -scheduler phoenix -profile google -scale 0.1 -seed 1
//	phoenix-sim -scheduler eagle-c -trace workload.jsonl -nodes 5000
//	phoenix-sim -timeseries run.csv -report run.md
//	phoenix-sim -faults scenarios/rack-outage.json -report outage.md
//
// Without -trace, a synthetic workload is generated from the named profile
// at the given scale; with -trace, the JSONL file written by tracegen is
// replayed. -timeseries and -report attach the internal/telemetry sampler
// (scheduler-invisible: the -digest output is unchanged) and write a
// per-interval CSV and a Markdown run report respectively. -faults runs a
// deterministic fault campaign (internal/faults) from a scenario JSON file;
// it overrides -failure-rate, and the report gains a fault timeline.
//
// -policies stacks composable policy plug-ins around the chosen scheduler
// (including sharded), innermost-first:
//
//	phoenix-sim -scheduler phoenix -policies gang,preempt,backfill \
//	    -gang-fraction 0.2 -priority-fraction 0.15 -scale 0.1
//
// gang adds all-or-nothing co-placement for jobs with gang widths,
// preempt relocates lower-priority short probes queued ahead of
// high-priority long jobs, and backfill slots short jobs into gang
// reservation windows (DESIGN.md §17). -gang-fraction and
// -priority-fraction flavor the synthetic workload; at zero (the
// default) the policy stack is digest-invisible.
//
// -admission enables CRV-aware admission control (internal/admission):
//
//	phoenix-sim -admission controller -faults scenarios/supply-loss.json -report run.md
//
// "controller" runs the per-dimension feedback loop (relax a soft
// constraint dimension after its CRV exceeds the trigger for k beats,
// re-tighten after a longer recovery streak, hysteresis + dwell bound the
// oscillation), tuned by an optional -admission-config JSON file; "static"
// is the always-relax open-loop baseline. At "off" (the default) runs are
// byte-identical to builds without the layer.
//
// -service switches to the open-loop live-service mode:
//
//	phoenix-sim -service -arrivals poisson -duration 600 -windows win.csv
//	phoenix-sim -service -arrivals bursty -duration 0 -scheduler eagle-c
//	phoenix-sim -service -replay workload.jsonl -rate 1.2 -window 30
//
// Jobs stream from a never-ending arrival process (poisson, diurnal, or
// bursty) instead of a pre-materialized trace — or, with -replay, from a
// recorded JSONL trace streamed open-loop with -rate scaling its
// inter-arrival gaps; admission closes at
// -duration simulated seconds (0 = run until interrupted), queues drain
// gracefully, and the summary reports steady-state tumbling-window wait
// percentiles past the MSER warm-up cut. Ctrl-C (SIGINT/SIGTERM) triggers
// the same graceful drain from any point in the run. Memory stays bounded
// regardless of horizon: per-job records are folded into a streaming
// digest instead of retained, and telemetry rings are capped on unbounded
// runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"github.com/phoenix-sched/phoenix/internal/admission"
	"github.com/phoenix-sched/phoenix/internal/cluster"
	"github.com/phoenix-sched/phoenix/internal/experiments"
	"github.com/phoenix-sched/phoenix/internal/faults"
	"github.com/phoenix-sched/phoenix/internal/metrics"
	"github.com/phoenix-sched/phoenix/internal/profiling"
	"github.com/phoenix-sched/phoenix/internal/sched"
	"github.com/phoenix-sched/phoenix/internal/simulation"
	"github.com/phoenix-sched/phoenix/internal/telemetry"
	"github.com/phoenix-sched/phoenix/internal/trace"
	"github.com/phoenix-sched/phoenix/internal/validate"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "phoenix-sim:", err)
		os.Exit(1)
	}
}

// options is the parsed command line.
type options struct {
	schedName, profile, tracePath string
	scale                         float64
	nodes                         int
	seed, traceSeed               uint64
	load, failRate                float64
	faultPath                     string
	validate, digest              bool
	shards                        int
	policyCSV                     string
	gangFrac, prioFrac            float64

	timeseriesPath, reportPath string

	admissionMode, admissionConfig string

	service                bool
	replayPath, arrivals   string
	duration, rate, window float64
	maxWindows, maxSamples int
	windowsPath            string

	cpuProfile, memProfile string

	crvThreshold, qwait float64
	noCRV, noWaitAware  bool
	reschedule          int
}

// parseFlags parses the command line; -shards below 1 is an error.
func parseFlags(args []string) (*options, error) {
	var o options
	fs := flag.NewFlagSet("phoenix-sim", flag.ContinueOnError)
	fs.StringVar(&o.schedName, "scheduler", "phoenix", "scheduler: phoenix, eagle-c, hawk-c, sparrow-c, yacc-d")
	fs.StringVar(&o.profile, "profile", "google", "workload profile: google, yahoo, cloudera")
	fs.Float64Var(&o.scale, "scale", 0.1, "workload scale (1.0 = paper scale)")
	fs.StringVar(&o.tracePath, "trace", "", "replay a JSONL trace instead of generating one")
	fs.IntVar(&o.nodes, "nodes", 0, "cluster size override (default: the trace's calibrated size)")
	fs.Uint64Var(&o.seed, "seed", 1, "simulation seed")
	fs.Uint64Var(&o.traceSeed, "trace-seed", 1000, "trace generation seed")
	fs.Float64Var(&o.load, "load", 0, "target offered load override (0 = profile default)")
	fs.Float64Var(&o.failRate, "failure-rate", 0, "worker failures per node-hour (0 = off)")
	fs.StringVar(&o.faultPath, "faults", "", "run a fault-campaign scenario from this JSON file (overrides -failure-rate)")
	fs.BoolVar(&o.validate, "validate", false, "run the invariant checker and fail on any violation")
	fs.BoolVar(&o.digest, "digest", false, "print the run digest (same seed => same digest)")
	fs.IntVar(&o.shards, "shards", 1, "run the scheduler sharded over N cluster partitions (1 = unsharded; digests identical at 1)")
	fs.StringVar(&o.policyCSV, "policies", "", "policy plug-ins wrapped around the scheduler, comma-separated innermost-first: gang, preempt, backfill (e.g. gang,backfill = backfill(gang(s)))")
	fs.Float64Var(&o.gangFrac, "gang-fraction", 0, "fraction of long multi-task jobs generated as gangs (synthetic workloads only)")
	fs.Float64Var(&o.prioFrac, "priority-fraction", 0, "fraction of long jobs generated at high priority (synthetic workloads only)")

	fs.StringVar(&o.timeseriesPath, "timeseries", "", "write a per-interval telemetry CSV (CRV, waits, queue depths) to this file")
	fs.StringVar(&o.reportPath, "report", "", "write a Markdown run report to this file")

	fs.StringVar(&o.admissionMode, "admission", "off", "admission control: off, controller (CRV feedback loop), static (always-relax baseline)")
	fs.StringVar(&o.admissionConfig, "admission-config", "", "admission controller: load thresholds/streaks/dwell from this JSON file")

	fs.BoolVar(&o.service, "service", false, "open-loop live-service mode: stream arrivals instead of replaying a trace")
	fs.StringVar(&o.replayPath, "replay", "", "service mode: stream this recorded JSONL trace open-loop at -rate instead of synthetic arrivals")
	fs.StringVar(&o.arrivals, "arrivals", "poisson", "service arrival process: poisson, diurnal, bursty")
	fs.Float64Var(&o.duration, "duration", 600, "service admission horizon in simulated seconds (0 = until interrupted)")
	fs.Float64Var(&o.rate, "rate", 1.0, "service arrival-rate multiplier (1.0 = the profile's calibrated load)")
	fs.Float64Var(&o.window, "window", 30, "service tumbling-window length in simulated seconds")
	fs.IntVar(&o.maxWindows, "max-windows", 0, "ring-buffer bound on retained windows (0 = retain all, or auto-bound when -duration 0)")
	fs.IntVar(&o.maxSamples, "max-samples", 0, "ring-buffer bound on retained telemetry samples (0 = retain all, or auto-bound when -duration 0)")
	fs.StringVar(&o.windowsPath, "windows", "", "write the per-window percentile CSV to this file")

	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file on exit")

	fs.Float64Var(&o.crvThreshold, "crv-threshold", 0, "Phoenix CRV contention threshold override (0 = default)")
	fs.Float64Var(&o.qwait, "qwait", 0, "Phoenix Qwait threshold seconds override (0 = default)")
	fs.BoolVar(&o.noCRV, "no-crv-reorder", false, "disable Phoenix CRV queue reordering")
	fs.BoolVar(&o.noWaitAware, "no-waitaware", false, "disable Phoenix wait-aware probing")
	fs.IntVar(&o.reschedule, "reschedule-budget", -1, "Phoenix per-worker probe reschedule budget (-1 = default)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.shards < 1 {
		return nil, fmt.Errorf("-shards %d must be >= 1 (1 = unsharded)", o.shards)
	}
	return &o, nil
}

func run(args []string) (err error) {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	stopProfiles, err := profiling.Start(o.cpuProfile, o.memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil && err == nil {
			err = perr
		}
	}()
	inv, err := o.invocation()
	if err != nil {
		return err
	}
	if inv.replay != nil {
		defer inv.replay.Close()
	}
	a, err := experiments.Build(inv.spec)
	if err != nil {
		return err
	}
	if o.service {
		return inv.runService(a)
	}
	return inv.runBatch(a)
}

// invocation is one command line resolved into the run it asks for: the
// Spec to build, plus what the service report needs to name its workload.
type invocation struct {
	*options
	spec experiments.Spec
	// synth is the synthetic service workload; replay, when set, streams
	// a recorded trace instead (the -replay flag).
	synth  trace.GeneratorConfig
	replay *trace.ReplaySource
}

// Ring bounds applied to unbounded-horizon service runs when the caller did
// not choose their own: a day of 30-second windows and a comparable sample
// budget, enough context for live inspection at constant memory.
const (
	autoMaxWindows = 2880
	autoMaxSamples = 4096
)

// invocation loads or generates the workload and cluster and maps every
// flag onto the Spec. It is the CLI's whole flag-to-Spec translation.
func (o *options) invocation() (_ *invocation, err error) {
	prof, err := cluster.ProfileByName(o.profile)
	if err != nil {
		return nil, err
	}
	if o.replayPath != "" && !o.service {
		return nil, fmt.Errorf("-replay streams a recorded trace open-loop; it requires -service")
	}
	inv := &invocation{options: o}
	defer func() {
		if err != nil && inv.replay != nil {
			inv.replay.Close()
		}
	}()
	var tr *trace.Trace
	clusterSize := o.nodes
	switch {
	case o.service && o.tracePath != "":
		return nil, fmt.Errorf("-service streams synthetic arrivals; -trace is batch-only (use -replay to stream a recorded trace)")
	case o.service && o.replayPath != "":
		if inv.replay, err = trace.OpenReplay(o.replayPath, o.rate); err != nil {
			return nil, err
		}
		if clusterSize == 0 {
			clusterSize = inv.replay.NumNodes()
		}
	case o.tracePath != "":
		if tr, err = trace.ReadFile(o.tracePath); err != nil {
			return nil, err
		}
		if clusterSize == 0 {
			clusterSize = tr.NumNodes
		}
	default:
		cfg, err := trace.ConfigByName(o.profile, o.scale)
		if err != nil {
			return nil, err
		}
		if o.load > 0 {
			cfg.TargetLoad = o.load
		}
		cfg.GangFraction = o.gangFrac
		cfg.PriorityFraction = o.prioFrac
		if clusterSize == 0 {
			clusterSize = cfg.NumNodes
		}
		inv.synth = cfg
		if !o.service {
			anchor, err := prof.GenerateCluster(max(clusterSize, cfg.NumNodes), simulation.NewRNG(42).Stream("cli/machines"))
			if err != nil {
				return nil, err
			}
			if tr, err = trace.Generate(cfg, anchor, o.traceSeed); err != nil {
				return nil, err
			}
		}
	}
	cl, err := prof.GenerateCluster(clusterSize, simulation.NewRNG(42).Stream("cli/machines"))
	if err != nil {
		return nil, err
	}

	spec := experiments.Spec{
		Config:    sched.DefaultConfig(),
		Cluster:   cl,
		Seed:      o.seed,
		Trace:     tr,
		Scheduler: o.schedName,
		Phoenix:   experiments.DefaultOptions().Phoenix,
		Admission: o.admissionMode,
		Validate:  o.validate,
	}
	if o.crvThreshold > 0 {
		spec.Phoenix.CRVThreshold = o.crvThreshold
	}
	if o.qwait > 0 {
		spec.Phoenix.QwaitThresholdSeconds = o.qwait
	}
	if o.noCRV {
		spec.Phoenix.CRVReordering = false
	}
	if o.noWaitAware {
		spec.Phoenix.WaitAwareProbing = false
	}
	if o.reschedule >= 0 {
		spec.Phoenix.RescheduleBudget = o.reschedule
	}
	if o.shards > 1 {
		spec.Shards = o.shards
	}
	if o.policyCSV != "" {
		for _, name := range strings.Split(o.policyCSV, ",") {
			spec.Policies = append(spec.Policies, strings.TrimSpace(name))
		}
	}
	spec.Config.FailureRatePerHour = o.failRate
	if o.faultPath != "" {
		if spec.Faults, err = faults.LoadScenario(o.faultPath); err != nil {
			return nil, err
		}
		if o.failRate > 0 {
			// Random churn and a scripted campaign would double-fail
			// workers in ways neither model intends; the explicit
			// scenario wins.
			fmt.Fprintf(os.Stderr, "phoenix-sim: warning: -failure-rate %.3g ignored, scenario %s takes precedence\n", o.failRate, spec.Faults.Name)
			spec.Config.FailureRatePerHour = 0
		}
	}
	if spec.AdmissionConfig, err = o.admissionSettings(); err != nil {
		return nil, err
	}
	if o.timeseriesPath != "" || o.reportPath != "" {
		spec.Telemetry = &telemetry.Options{}
	}
	if o.service {
		if err := inv.serviceSpec(&spec); err != nil {
			return nil, err
		}
	}
	inv.spec = spec
	return inv, nil
}

// admissionSettings resolves the controller's configuration: DefaultConfig,
// overridden by the optional -admission-config JSON. Only the controller
// mode reads a configuration.
func (o *options) admissionSettings() (admission.Config, error) {
	switch o.admissionMode {
	case "", "off", "static":
		return admission.Config{}, nil
	case "controller":
	default:
		return admission.Config{}, fmt.Errorf("unknown -admission mode %q (off, controller, static)", o.admissionMode)
	}
	if o.admissionConfig == "" {
		return admission.DefaultConfig(), nil
	}
	return admission.LoadConfig(o.admissionConfig)
}

// serviceSpec completes spec for an open-loop service run: the job source,
// the window recorder, ring bounds on unbounded horizons, and bounded job
// records unless a run report needs them for its class-percentile tables
// (the digest is identical either way).
func (inv *invocation) serviceSpec(spec *experiments.Spec) error {
	if inv.duration < 0 {
		return fmt.Errorf("-duration %v must be >= 0", inv.duration)
	}
	if inv.window <= 0 {
		return fmt.Errorf("-window %v must be positive", inv.window)
	}
	maxWindows, maxSamples := inv.maxWindows, inv.maxSamples
	if inv.duration == 0 {
		if maxWindows == 0 {
			maxWindows = autoMaxWindows
		}
		if maxSamples == 0 {
			maxSamples = autoMaxSamples
		}
	}
	if inv.replay != nil {
		spec.Source = inv.replay
	} else {
		src, err := trace.NewArrivalSource(inv.synth, trace.ArrivalConfig{
			Kind:           trace.ArrivalKind(inv.arrivals),
			RateMultiplier: inv.rate,
		}, spec.Cluster, inv.traceSeed)
		if err != nil {
			return err
		}
		spec.Source = src
	}
	spec.Windows = &telemetry.WindowOptions{
		Interval:   simulation.FromSeconds(inv.window),
		MaxWindows: maxWindows,
	}
	if spec.Telemetry != nil {
		spec.Telemetry.MaxSamples = maxSamples
	}
	spec.DropJobRecords = inv.reportPath == ""
	return nil
}

// runBatch runs a trace-driven assembly and prints and writes its outcome.
func (inv *invocation) runBatch(a *experiments.Assembly) error {
	res, err := a.Run(context.Background())
	if err != nil {
		return err
	}
	printResult(a.Spec.Trace, a.Spec.Cluster, res)
	meta := func() telemetry.Meta { return a.Meta(res) }
	if err := inv.writeTelemetry(a.Recorder, res.Collector, meta); err != nil {
		return err
	}
	inv.printTail(res.Collector.Digest(), a.Checker)
	return nil
}

// runService executes one open-loop service run: continuous arrivals, a
// fixed (or unbounded) admission horizon, graceful drain on SIGINT/SIGTERM,
// windowed percentile telemetry, and bounded memory regardless of horizon.
func (inv *invocation) runService(a *experiments.Assembly) error {
	// Ctrl-C triggers the graceful drain: admission stops, queues run
	// down, the final partial window flushes, and the summary still prints.
	ctx, cancelSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancelSignals()
	res, err := a.RunService(ctx, simulation.FromSeconds(inv.duration))
	if res == nil {
		return err
	}
	if inv.replay != nil {
		if rerr := inv.replay.Err(); rerr != nil {
			return rerr
		}
	}
	inv.printServiceResult(a.Spec.Source, a.Windows, res)

	if inv.windowsPath != "" {
		if err := os.WriteFile(inv.windowsPath, []byte(a.Windows.WindowCSV()), 0o644); err != nil {
			return err
		}
	}
	meta := func() telemetry.Meta {
		tasks := 0
		for i := range res.Collector.Jobs() {
			tasks += res.Collector.Jobs()[i].NumTasks
		}
		workload := fmt.Sprintf("service/%s/%s", inv.synth.Name, inv.arrivals)
		offered := inv.rate * inv.synth.TargetLoad
		if inv.replay != nil {
			workload = fmt.Sprintf("replay/%s", inv.replay.Name())
			offered = inv.rate
		}
		return telemetry.Meta{
			Scheduler:   res.Scheduler,
			Workload:    workload,
			Jobs:        res.JobsAdmitted,
			Tasks:       tasks,
			Workers:     res.NumWorkers,
			OfferedLoad: offered,
			Seed:        inv.seed,
			Span:        res.Span,
			Utilization: res.Utilization,
			Faults:      a.FaultWindows(),
		}
	}
	if err := inv.writeTelemetry(a.Recorder, res.Collector, meta); err != nil {
		return err
	}
	inv.printTail(res.Collector.ServiceDigest(), a.Checker)
	return nil
}

// writeTelemetry writes the -timeseries CSV and the -report Markdown that
// were asked for; meta is only evaluated for a report.
func (o *options) writeTelemetry(rec *telemetry.Recorder, c *metrics.Collector, meta func() telemetry.Meta) error {
	if o.timeseriesPath != "" {
		if err := os.WriteFile(o.timeseriesPath, []byte(rec.CSV()), 0o644); err != nil {
			return err
		}
	}
	if o.reportPath != "" {
		if err := os.WriteFile(o.reportPath, []byte(rec.Report(meta(), c)), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// printTail prints the -digest line and, for a checked run (which has
// already passed by the time it prints), the validation summary.
func (o *options) printTail(digest uint64, chk *validate.Checker) {
	if o.digest {
		fmt.Printf("digest         %016x\n", digest)
	}
	if chk != nil {
		fmt.Printf("validate       ok (%d events, 0 violations)\n", chk.Events())
	}
}

func (o *options) printServiceResult(src sched.JobSource, wr *telemetry.WindowRecorder, res *sched.ServiceResult) {
	c := res.Collector
	fmt.Printf("scheduler      %s\n", res.Scheduler)
	fmt.Printf("cluster        %d workers\n", res.NumWorkers)
	horizon := "until interrupted"
	if res.Horizon > 0 {
		horizon = fmt.Sprintf("horizon %s", res.Horizon)
	}
	switch s := src.(type) {
	case *trace.ReplaySource:
		fmt.Printf("arrivals       replay %s x%.2f (%d/%d jobs emitted), %s\n",
			s.Name(), s.Rate(), s.Emitted(), s.NumJobs(), horizon)
	case *trace.ArrivalSource:
		fmt.Printf("arrivals       %s x%.2f (base %.2f jobs/s), %s\n",
			o.arrivals, o.rate, s.BaseRate(), horizon)
	}
	ending := "horizon reached"
	if res.Cancelled {
		ending = "interrupted, drained gracefully"
	}
	fmt.Printf("admitted       %d jobs (%s)\n", res.JobsAdmitted, ending)
	fmt.Printf("span           %s, drained at %s (utilization over span %.2f)\n",
		res.Span, res.DrainedAt, res.Utilization)
	fmt.Println()

	warm := wr.WarmupWindows()
	fmt.Printf("windows        %d closed at %s each (%d warm-up by MSER)\n",
		wr.TotalWindows(), wr.Interval(), warm)
	p50, p95, p99 := wr.SteadyWaitPercentiles()
	fmt.Printf("steady wait    p50=%8.2fs p95=%8.2fs p99=%8.2fs (median across post-warm-up windows)\n",
		p50, p95, p99)
	fmt.Println()
	fmt.Printf("probes=%d reordered=%d crv_reordered=%d stolen=%d rescheduled=%d relaxed_jobs=%d\n",
		c.Probes, c.ReorderedTasks, c.CRVReorderedTasks, c.StolenTasks, c.RescheduledProbes, c.RelaxedJobs)
}

func printResult(tr *trace.Trace, cl *cluster.Cluster, res *sched.Result) {
	c := res.Collector
	fmt.Printf("scheduler      %s\n", res.Scheduler)
	fmt.Printf("cluster        %d workers\n", res.NumWorkers)
	fmt.Printf("workload       %s: %d jobs, %d tasks, offered load %.2f\n",
		tr.Name, len(tr.Jobs), tr.NumTasks(), tr.OfferedLoad(cl.Size()))
	fmt.Printf("span           %s (utilization over span %.2f)\n", res.Span, res.Utilization)
	fmt.Println()

	row := func(label string, f metrics.Filter) {
		p := c.ResponsePercentiles(f)
		q := c.QueueDelayPercentiles(f)
		fmt.Printf("%-22s response p50=%8.2fs p90=%8.2fs p99=%8.2fs | queue p99=%8.2fs\n",
			label, p.P50, p.P90, p.P99, q.P99)
	}
	row("short constrained", metrics.AndFilter(metrics.Short, metrics.Constrained))
	row("short unconstrained", metrics.AndFilter(metrics.Short, metrics.Unconstrained))
	row("long", metrics.Long)
	row("all", metrics.All)
	fmt.Println()
	fmt.Printf("probes=%d reordered=%d crv_reordered=%d stolen=%d rescheduled=%d relaxed_jobs=%d\n",
		c.Probes, c.ReorderedTasks, c.CRVReorderedTasks, c.StolenTasks, c.RescheduledProbes, c.RelaxedJobs)
}
