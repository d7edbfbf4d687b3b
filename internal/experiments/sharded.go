package experiments

import (
	"context"
	"strconv"
	"time"

	"github.com/phoenix-sched/phoenix/internal/metrics"
)

// shardCounts is the shard-count sweep of ext-sharded. The single-shard
// point is the unsharded-equivalent baseline (byte-identical digests); the
// rest chart how far partitioned candidate universes and per-shard
// schedulers push wall-clock down before commit conflicts push response
// times up.
var shardCounts = []int{1, 2, 4, 8}

// ShardScaling is the ext-sharded experiment: Phoenix wrapped by the
// sharded meta-scheduler at 1, 2, 4, and 8 shards over the Google
// workload, reporting response percentiles, optimistic-commit conflict
// rate, and — under Options.Timing — the wall-clock time of each sweep
// point. Run it at -scale 10 or 100 to see the scale-out story the
// ROADMAP's 100k-1M-worker north star asks for: the candidate-universe
// partitioning is what keeps satisfying-set scans cache-resident as the
// cluster grows.
func ShardScaling(opts Options) (*Report, error) {
	e, err := newEnv(opts, "google")
	if err != nil {
		return nil, err
	}
	cl, err := e.clusterAt(1.0)
	if err != nil {
		return nil, err
	}

	type unit struct {
		resp      []float64
		conflicts int64
		probes    int64
		util      float64
		wall      time.Duration
	}
	units := make([]unit, len(shardCounts)*opts.Seeds)
	err = opts.runUnits(len(units), func(ctx context.Context, i int) error {
		shards := shardCounts[i/opts.Seeds]
		rep := i % opts.Seeds
		tr, err := e.trace(rep)
		if err != nil {
			return err
		}
		spec := opts.unit(cl, tr, SchedPhoenix, rep)
		spec.Shards = shards
		var started time.Time
		if opts.Timing {
			started = time.Now()
		}
		res, err := runSpec(ctx, spec)
		if err != nil {
			return err
		}
		u := unit{
			resp:      res.Collector.ResponseTimes(metrics.All),
			conflicts: res.Collector.CommitConflicts,
			probes:    res.Collector.Probes,
			util:      res.Utilization,
		}
		if opts.Timing {
			u.wall = time.Since(started)
		}
		units[i] = u
		return nil
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		ID:      "ext-sharded",
		Title:   "Sharded shared-state scale-out: shard count vs wall-clock and conflict rate (Phoenix inner)",
		Columns: []string{"shards", "conflicts", "conflict_rate", "p50_s", "p99_s", "util", "wall_s"},
		Notes: []string{
			"shards=1 is the pass-through baseline: same-seed digests byte-identical to unsharded phoenix",
			"conflict_rate = optimistic-commit conflicts / probe placements; conflicted placements pay a retry RTT",
			"wall_s is host wall-clock per run (mean over seeds), reported only under -timing with -jobs 1; empty otherwise",
		},
	}
	for si, shards := range shardCounts {
		var resp []float64
		var conflicts, probes int64
		var utils []float64
		var wall time.Duration
		for rep := 0; rep < opts.Seeds; rep++ {
			u := &units[si*opts.Seeds+rep]
			resp = append(resp, u.resp...)
			conflicts += u.conflicts
			probes += u.probes
			utils = append(utils, u.util)
			wall += u.wall
		}
		rate := 0.0
		if probes > 0 {
			rate = float64(conflicts) / float64(probes)
		}
		wallCell := ""
		if opts.Timing {
			wallCell = f2(wall.Seconds() / float64(opts.Seeds))
		}
		p := metrics.Percentiles(resp, 50, 99)
		rep.Rows = append(rep.Rows, []string{
			strconv.Itoa(shards),
			strconv.FormatInt(conflicts, 10),
			f(rate),
			f2(p[0]), f2(p[1]),
			f(meanOf(utils)),
			wallCell,
		})
	}
	return rep, nil
}
