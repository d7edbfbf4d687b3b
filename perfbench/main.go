// Command perfbench is the repository's benchmark. It runs one workload of
// the Phoenix simulator repeatedly for a fixed wall-clock budget, each run
// in a fresh child process, checks every run's digest, and prints each
// metric by name with its unit; the last line of its output is one JSON
// object with the keys correct, attempted, failed and metrics.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload batch-phoenix-google --seed 1000 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics of untraced runs; --trace 1
// reports the per-layer metrics of traced runs. --write-spec FILE writes
// the benchmark definition (BENCHMARK.json). README.md describes the
// workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// outDir holds build outputs, spans and result records, relative to the
// checkout root.
const outDir = ".bench_build"

// setupsPerRun is how many times each child run sets its workload up; the
// set-up figures are the median.
const setupsPerRun = 5

// procs is the GOMAXPROCS of every run: the simulator is single-threaded,
// and a second processor absorbs the garbage collector.
var procs = min(2, runtime.NumCPU())

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "", "workload to run, or all")
		seed      = fs.Uint64("seed", defaultSeed, "trace seed; digests are pinned at the default")
		seconds   = fs.Int("seconds", runSeconds, "wall-clock seconds of measuring")
		trace     = fs.Int("trace", 0, "0: end-to-end metrics of untraced runs; 1: per-layer metrics of traced runs")
		writeSpec = fs.String("write-spec", "", "write the benchmark definition to this file and exit")
		child     = fs.String("child", "", "run one measured run of this variant and print its JSON (internal)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *writeSpec != "" {
		return os.WriteFile(*writeSpec, specJSON(), 0o644)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", *seconds)
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			return err
		}
		ws = []workload{w}
	}
	if *child != "" {
		return runChild(ws[0], *seed, variant(*child))
	}
	if _, err := os.Stat(scenarioPath); err != nil {
		return fmt.Errorf("run from the root of a checkout: %w", err)
	}
	for _, w := range ws {
		if err := measure(w, *seed, *seconds, *trace == 1); err != nil {
			return err
		}
	}
	return nil
}

// childResult is what one child run reports to the parent.
type childResult struct {
	Digest  string             `json:"digest"`
	Error   string             `json:"error,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
}

// runChild performs one run in this process and prints its childResult.
func runChild(w workload, seed uint64, v variant) error {
	runtime.GOMAXPROCS(procs)
	m := make(map[string]float64)
	res := childResult{Metrics: m}
	setups := make(map[string][]float64)
	in, err := setup(w, seed, v, setups)
	if err == nil {
		var digest uint64
		digest, err = in.run(m)
		res.Digest = fmt.Sprintf("%016x", digest)
		if err == nil && in.tr != nil {
			err = in.tr.writeSpans(filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.csv", w.name, seed)), in.runTime)
		}
	}
	// Set up again after the run, whose peak memory is already recorded,
	// and report the median of every set-up step.
	for i := 1; i < setupsPerRun && err == nil; i++ {
		_, err = setup(w, seed, v, setups)
	}
	for k, v := range setups {
		m[k] = median(v)
	}
	if err == nil {
		runtime.GC() // the finished run's heap must not slow the reference
		m["ref_s"] = hostReference()
	}
	if err != nil {
		res.Error = err.Error()
	}
	out, merr := json.Marshal(res)
	if merr != nil {
		return merr
	}
	fmt.Println(string(out))
	return err
}

// inputSeed returns the trace seed of the i-th timed run of an invocation
// with the given --seed: the seed itself first, then seeds derived from
// it. Traces differ in cost, the service workload's by up to a factor of
// two, so every timed run takes a trace of its own and the reported figure,
// their median, averages over traces as well as over host noise.
func inputSeed(seed uint64, i int) uint64 {
	return seed + uint64(i)*1_000_003
}

// sample is one child run as the parent saw it.
type sample struct {
	variant variant
	input   uint64
	childResult
	failed bool
}

// measure runs child runs of w until the time budget is spent and prints
// the report. Untraced, every run takes the next input; a last run repeats
// the first input with the invariant checker attached (the service
// workload always has it), so that the seed is shown to give the same
// digest twice with the checker clean. Traced, rounds of every variant run
// on the --seed trace alone, whose counts then repeat exactly.
func measure(w workload, seed uint64, seconds int, traceMode bool) error {
	if err := os.MkdirAll(filepath.Join(outDir, "spans"), 0o755); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var samples []sample
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	if traceMode {
		round := []variant{plain, traced, checkFlip}
		if w.service {
			round = append(round, recorderOff)
		}
		for r := 0; r == 0 || time.Now().Before(deadline); r++ {
			for _, v := range round {
				samples = append(samples, runOnce(exe, w, seed, v))
			}
		}
	} else {
		for i := 0; i < minRuns || time.Now().Before(deadline); i++ {
			samples = append(samples, runOnce(exe, w, inputSeed(seed, i), plain))
		}
		check := checkFlip
		if w.service {
			check = plain
		}
		s := runOnce(exe, w, seed, check)
		s.variant = "check"
		samples = append(samples, s)
	}
	rep := summarize(w, seed, traceMode, samples)
	return rep.print(w, seed, seconds, traceMode)
}

// minRuns is the fewest timed runs of an untraced invocation.
const minRuns = 3

// runOnce runs one child process to completion.
func runOnce(exe string, w workload, input uint64, v variant) sample {
	cmd := exec.Command(exe, "-child", string(v), "-workload", w.name, "-seed", strconv.FormatUint(input, 10))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	s := sample{variant: v, input: input}
	if jerr := json.Unmarshal(lastLine(stdout.Bytes()), &s.childResult); jerr != nil && err == nil {
		err = fmt.Errorf("child output: %w", jerr)
	}
	if err != nil && s.Error == "" {
		s.Error = err.Error()
	}
	s.failed = s.Error != ""
	return s
}

func lastLine(b []byte) []byte {
	b = bytes.TrimSpace(b)
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// report is the outcome of one measure call.
type report struct {
	samples   []sample
	attempted int
	failed    int
	// digests maps each input to the digest all its runs must produce:
	// the pinned one at defaultSeed, else the first one seen.
	digests map[uint64]string
	// figures are the reported values: medians over runs, or differences
	// of medians. values holds the runs behind each median, for the
	// spread shown next to it.
	figures map[string]float64
	values  map[string][]float64
	notes   []string
}

// fromPlainRuns names the per-layer metrics taken from the untraced runs:
// set-up steps, GC and rendering, which tracing would distort.
var fromPlainRuns = map[string]bool{
	"runtime.gc_cycles": true, "runtime.gc_cpu_s": true, "trace.generate_s": true,
	"cluster.generate_s": true, "sched.new_driver_s": true, "metrics.digest_s": true,
	"telemetry.render_s": true, "window_host_ms.p50": true,
}

// relativeTo maps each relative end-to-end metric to the absolute time it
// divides by the host reference (see hostReference): the median of the one
// over the median of the other, across the same runs, both in seconds.
var relativeTo = map[string]metricDef{
	"run_rel":        {Name: "run_s", Unit: "s"},
	"cpu_rel":        {Name: "cpu_s", Unit: "s"},
	"window_rel.p90": {Name: "window_host_ms.p90", Unit: "ms"},
}

// absolute are the host times behind the relative metrics, printed with
// the end-to-end table and reported per layer as bench.<name>.
var absolute = []metricDef{
	{Name: "run_s", Unit: "s"},
	{Name: "cpu_s", Unit: "s"},
	{Name: "window_host_ms.p90", Unit: "ms"},
	{Name: "ref_s", Unit: "s"},
}

// summarize checks every run's digest and gathers the reported metrics.
func summarize(w workload, seed uint64, traceMode bool, samples []sample) *report {
	rep := &report{
		samples: samples, attempted: len(samples),
		digests: make(map[uint64]string), figures: make(map[string]float64), values: make(map[string][]float64),
	}
	rep.digests[defaultSeed] = w.pinned
	runs := make(map[variant][]map[string]float64)
	for i := range samples {
		s := &samples[i]
		if !s.failed {
			want, ok := rep.digests[s.input]
			if !ok {
				want = s.Digest
				rep.digests[s.input] = want
			}
			if s.Digest != want {
				s.failed = true
				s.Error = fmt.Sprintf("digest %s, want %s", s.Digest, want)
			}
		}
		if s.failed {
			rep.failed++
			rep.notes = append(rep.notes, fmt.Sprintf("%s run of trace seed %d failed: %s", s.variant, s.input, s.Error))
			continue
		}
		runs[s.variant] = append(runs[s.variant], s.Metrics)
	}
	values := func(v variant, key string) []float64 {
		vals := make([]float64, len(runs[v]))
		for i, m := range runs[v] {
			vals[i] = m[key]
		}
		return vals
	}
	pick := func(name string, v variant, key string) {
		rep.values[name] = values(v, key)
		rep.figures[name] = median(rep.values[name])
	}
	if !traceMode {
		for _, a := range absolute {
			pick(a.Name, plain, a.Name)
		}
		for _, d := range endToEnd {
			if abs, ok := relativeTo[d.Name]; ok {
				seconds := rep.figures[abs.Name]
				if abs.Unit == "ms" {
					seconds /= 1e3
				}
				rep.values[d.Name] = nil
				rep.figures[d.Name] = ratio(seconds, rep.figures["ref_s"])
				continue
			}
			pick(d.Name, plain, d.Name)
		}
		return rep
	}
	// Per-layer metrics: hook spans and counts from the traced runs; the
	// set-up steps, GC and render costs from the plain runs, which carry
	// no tracing; the checker's figures from the runs that attach it; and
	// attach costs as differences of medians.
	checked, unchecked := checkFlip, plain
	if w.service {
		checked, unchecked = plain, checkFlip
	}
	for _, d := range perLayer {
		v := traced
		switch {
		case fromPlainRuns[d.Name]:
			v = plain
		case strings.HasPrefix(d.Name, "validate."):
			v = checked
		}
		pick(d.Name, v, d.Name)
	}
	for _, a := range absolute {
		pick("bench."+a.Name, plain, a.Name)
	}
	pick("bench.traced_run_s", traced, "run_s")
	diff := func(name string, a, b variant) {
		rep.figures[name] = median(values(a, "run_s")) - median(values(b, "run_s"))
		rep.values[name] = nil
	}
	diff("bench.trace_overhead_s", traced, plain)
	diff("validate.cost_s", checked, unchecked)
	if w.service {
		diff("telemetry.recorder_cost_s", plain, recorderOff)
	} else {
		rep.figures["telemetry.recorder_cost_s"], rep.values["telemetry.recorder_cost_s"] = 0, nil
	}
	return rep
}

// print writes the human-readable report, saves the result record and
// prints the JSON result line last.
func (rep *report) print(w workload, seed uint64, seconds int, traceMode bool) error {
	defs := endToEnd
	mode := 0
	if traceMode {
		defs, mode = perLayer, 1
	}
	command := fmt.Sprintf("bash perfbench/run.sh --workload %s --seed %d --seconds %d --trace %d", w.name, seed, seconds, mode)
	host := hostFacts()
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(out, "# perfbench %s seed=%d trace=%d\n", w.name, seed, mode)
	fmt.Fprintf(out, "# reproduce: %s\n", command)
	fmt.Fprintf(out, "# host: nproc=%d gomaxprocs=%d go=%s cpu=%q\n", host.NumCPU, host.GOMAXPROCS, host.GoVersion, host.CPU)
	how := "the same in every run of the seed"
	if seed == defaultSeed {
		how = "pinned"
	}
	digest := rep.digests[seed]
	correct := rep.failed == 0 && digest != ""
	fmt.Fprintf(out, "# trace seed %d: digest %s (%s); timed runs after the first take trace seeds derived from it\n", seed, digest, how)
	fmt.Fprintf(out, "# runs: %d attempted, %d failed\n", rep.attempted, rep.failed)
	for _, n := range rep.notes {
		fmt.Fprintf(out, "# %s\n", n)
	}
	fmt.Fprintf(out, "%-34s %14s %-6s %s\n", "metric", "value", "unit", "runs behind it")
	type valueOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metricsOut := make(map[string]valueOut, len(defs))
	for _, d := range defs {
		fig, ok := rep.figures[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		metricsOut[d.Name] = valueOut{Value: fig, Unit: d.Unit}
		spread := "difference of medians"
		if _, ok := relativeTo[d.Name]; ok {
			spread = "ratio of medians"
		}
		if vals := rep.values[d.Name]; len(vals) > 0 {
			q1, q3 := quartiles(vals)
			spread = fmt.Sprintf("q1=%.6g q3=%.6g n=%d", q1, q3, len(vals))
		}
		fmt.Fprintf(out, "%-34s %14.6g %-6s %s\n", d.Name, fig, d.Unit, spread)
	}
	if !traceMode {
		for _, a := range absolute {
			q1, q3 := quartiles(rep.values[a.Name])
			fmt.Fprintf(out, "%-34s %14.6g %-6s q1=%.6g q3=%.6g n=%d; host time, not gated\n", a.Name, rep.figures[a.Name], a.Unit, q1, q3, len(rep.values[a.Name]))
		}
	}
	result := struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]valueOut `json:"metrics"`
	}{correct, rep.attempted, rep.failed, metricsOut}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	record := map[string]any{
		"workload": w.name, "seed": seed, "seconds": seconds, "trace": mode,
		"command": command, "host": host, "digests": rep.digests,
		"result": result, "runs": rep.runRecords(),
	}
	rec, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", w.name, seed, mode))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, append(rec, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "# record: %s\n", path)
	fmt.Fprintln(out, string(line))
	return out.Flush()
}

// runRecords lists every run with its variant, input, digest and figures.
func (rep *report) runRecords() []map[string]any {
	var runs []map[string]any
	for _, s := range rep.samples {
		r := map[string]any{"variant": s.variant, "seed": s.input, "digest": s.Digest, "metrics": s.Metrics}
		if s.Error != "" {
			r["error"] = s.Error
		}
		runs = append(runs, r)
	}
	return runs
}

// host describes the machine a result was measured on.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	OS         string `json:"os_arch"`
}

func hostFacts() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: procs, GoVersion: runtime.Version(), CPU: "unknown", OS: runtime.GOOS + "/" + runtime.GOARCH}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
