// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment builds the workload(s) it needs, runs the
// relevant schedulers over several seeds (the paper averages over five
// runs), and renders a Report whose rows mirror what the paper plots:
// normalized 50th/90th/99th percentile response times, queuing-delay CDFs
// and time series, constraint demand/supply distributions, and reordering
// statistics.
//
// Independent simulation runs execute concurrently — each run owns its own
// engine, driver, and collector, so the only shared state (cluster,
// generator configs) is read-only.
package experiments

import (
	"fmt"
	"math"
	"runtime"
	"strings"

	"github.com/phoenix-sched/phoenix/internal/cluster"
	"github.com/phoenix-sched/phoenix/internal/core"
	"github.com/phoenix-sched/phoenix/internal/sched"
	"github.com/phoenix-sched/phoenix/internal/simulation"
	"github.com/phoenix-sched/phoenix/internal/trace"

	// The bundled schedulers register themselves with the sched plug-in
	// registry from their init functions; the harness links them in so
	// every experiment and CLI can select them by name.
	_ "github.com/phoenix-sched/phoenix/internal/schedulers/centralized"
	_ "github.com/phoenix-sched/phoenix/internal/schedulers/eagle"
	_ "github.com/phoenix-sched/phoenix/internal/schedulers/hawk"
	_ "github.com/phoenix-sched/phoenix/internal/schedulers/sparrow"
	_ "github.com/phoenix-sched/phoenix/internal/schedulers/yaccd"
)

// Options scope an experiment run.
type Options struct {
	// Scale multiplies the paper's node and job counts together, keeping
	// offered load unchanged. 1.0 is paper scale (15,000 nodes for the
	// Google trace); the default is small enough for laptop runs.
	Scale float64
	// Seeds is the number of independent repetitions averaged per data
	// point (the paper uses five).
	Seeds int
	// SweepMults are the cluster-size multipliers used by the
	// utilization sweeps of Figs. 7, 8, 10, 11 (the paper grows the
	// Google cluster 15,000 -> 19,000 nodes to drop utilization from 86%
	// to 43%).
	SweepMults []float64
	// Parallelism bounds concurrent simulation runs; 0 means GOMAXPROCS.
	Parallelism int
	// ClusterSeed fixes the machine sample.
	ClusterSeed uint64
	// ValidateRuns attaches the invariant checker to every simulation and
	// fails the experiment on any violation (the -validate CLI flag).
	ValidateRuns bool
	// Timing, when set, lets experiments that report host wall-clock
	// columns (ext-sharded) actually measure and print them (the -timing
	// CLI flag). It is off by default so experiment CSVs stay byte-identical
	// at any -jobs worker count — wall-clock is the one nondeterministic
	// signal, and the determinism battery runs with it disabled.
	Timing bool
	// Stats, when non-nil, accumulates work-unit counts and busy time
	// across every pool run issued under these options; the CLI attaches
	// one per experiment to print its wall-clock/speedup summary line.
	Stats *PoolStats
	// Phoenix carries the Phoenix parameters used wherever Phoenix runs.
	Phoenix core.Options
}

// DefaultOptions returns laptop-scale settings that preserve every ratio
// the paper reports.
func DefaultOptions() Options {
	return Options{
		Scale:       0.2,
		Seeds:       8,
		SweepMults:  []float64{1.0, 1.12, 1.3, 1.6, 2.0},
		ClusterSeed: 42,
		Phoenix:     core.DefaultOptions(),
	}
}

// Validate reports option errors.
func (o *Options) Validate() error {
	switch {
	case o.Scale <= 0:
		return fmt.Errorf("experiments: scale %v must be positive", o.Scale)
	case o.Seeds < 1:
		return fmt.Errorf("experiments: seeds %d must be >= 1", o.Seeds)
	case len(o.SweepMults) == 0:
		return fmt.Errorf("experiments: empty sweep")
	case o.Parallelism < 0:
		return fmt.Errorf("experiments: negative parallelism")
	}
	for _, m := range o.SweepMults {
		if m < 1 {
			return fmt.Errorf("experiments: sweep multiplier %v must be >= 1 (the base point is the highest load)", m)
		}
	}
	return o.Phoenix.Validate()
}

func (o *Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// maxMult returns the largest sweep multiplier.
func (o *Options) maxMult() float64 {
	m := 1.0
	for _, v := range o.SweepMults {
		if v > m {
			m = v
		}
	}
	return m
}

// Scheduler names accepted by the factory.
const (
	SchedPhoenix     = "phoenix"
	SchedEagle       = "eagle-c"
	SchedHawk        = "hawk-c"
	SchedSparrow     = "sparrow-c"
	SchedYacc        = "yacc-d"
	SchedCentralized = "centralized"
)

// NewScheduler constructs a scheduler by name via the sched plug-in
// registry (sched.Register). Phoenix uses the options' Phoenix parameters.
func (o *Options) NewScheduler(name string) (sched.Scheduler, error) {
	// Phoenix is special-cased so experiments can sweep its options; every
	// other scheduler — bundled or registered by downstream code — comes
	// from the sched plug-in registry with its package defaults.
	if name == SchedPhoenix {
		return core.New(o.Phoenix)
	}
	return sched.NewByName(name)
}

// env is the shared, read-only substrate of one experiment: the workload
// profile configuration and a machine sample big enough for the largest
// sweep point.
type env struct {
	opts    Options
	profile string
	cfg     trace.GeneratorConfig
	big     *cluster.Cluster
}

// newEnv builds the substrate for a profile.
func newEnv(opts Options, profile string) (*env, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	cfg, err := trace.ConfigByName(profile, opts.Scale)
	if err != nil {
		return nil, err
	}
	prof, err := cluster.ProfileByName(profile)
	if err != nil {
		return nil, err
	}
	maxNodes := int(math.Ceil(float64(cfg.NumNodes) * opts.maxMult()))
	big, err := prof.GenerateCluster(maxNodes, simulation.NewRNG(opts.ClusterSeed).Stream("experiments/machines"))
	if err != nil {
		return nil, err
	}
	return &env{opts: opts, profile: profile, cfg: cfg, big: big}, nil
}

// clusterAt returns the prefix cluster for a sweep multiplier.
func (e *env) clusterAt(mult float64) (*cluster.Cluster, error) {
	n := int(math.Round(float64(e.cfg.NumNodes) * mult))
	if n > e.big.Size() {
		n = e.big.Size()
	}
	return e.big.Prefix(n)
}

// trace generates the workload for one repetition.
func (e *env) trace(rep int) (*trace.Trace, error) {
	return trace.Generate(e.cfg, e.big, uint64(1000+rep))
}

// driverSeed is the per-repetition scheduler randomness seed.
func driverSeed(rep int) uint64 { return uint64(7 + rep) }

// Report is a printable experiment result.
type Report struct {
	// ID is the experiment identifier, e.g. "fig7c".
	ID string
	// Title describes what the paper's counterpart shows.
	Title string
	// Columns are the column headers.
	Columns []string
	// Rows are the data rows, already formatted.
	Rows [][]string
	// Notes carry the expected paper shape and any caveats.
	Notes []string
}

// String renders an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the report as comma-separated values (header + rows).
func (r *Report) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Columns, ","))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// f formats a float compactly.
func f(v float64) string {
	if math.IsNaN(v) {
		return "nan"
	}
	return fmt.Sprintf("%.3f", v)
}

// f2 formats with 2 decimals.
func f2(v float64) string {
	if math.IsNaN(v) {
		return "nan"
	}
	return fmt.Sprintf("%.2f", v)
}

// meanOf averages ignoring NaNs; NaN if all NaN.
func meanOf(vals []float64) float64 {
	var sum float64
	n := 0
	for _, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		sum += v
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
