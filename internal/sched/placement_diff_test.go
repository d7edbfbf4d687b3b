package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/phoenix-sched/phoenix/internal/bitset"
	"github.com/phoenix-sched/phoenix/internal/cluster"
	"github.com/phoenix-sched/phoenix/internal/constraint"
	"github.com/phoenix-sched/phoenix/internal/simulation"
	"github.com/phoenix-sched/phoenix/internal/trace"
)

// This file is the central placer's differential battery: seeded random
// placement programs run through CentralPlacer.PlaceJob on one driver and
// through a brute-force reference on an identical second driver, and the
// worker chosen for every task must match. The reference is the placer's
// definition spelled out naively — one full LeastBacklogInScored rescan per
// task, with claimed racks removed from the candidate set for spread — so
// it shares nothing with the bounded selection under test. A failing
// program is shrunk before being reported.

// placeProgram is one differential case: a cluster, an initial load
// profile, and a sequence of jobs placed one after another.
type placeProgram struct {
	Workers  int   // cluster size; a non-multiple of RackSize leaves a partial last rack
	Shards   int   // 0: unsharded; otherwise a shard plan, jobs round-robin over shards
	LoadMode int   // 0: all loads equal; 1: few distinct loads (ties); 2: wide spread
	Seed     int64 // drives loads, scores, reserved sets and constraints
	Jobs     []placeJob
}

// placeJob is one PlaceJob call.
type placeJob struct {
	Tasks      int
	Placement  trace.Placement
	EstDur     simulation.Time // zero and negative estimates included
	Scored     bool            // CentralPlacer.Score set
	ScoreTies  bool            // scores drawn from {0, 1} instead of a wide range
	Reserved   int             // 0: none; 1: a random partition; 2: everything (reservation yields)
	Constraint int             // -1: unconstrained; else an EQ/GT/LT constraint drawn from the cluster
	Advance    simulation.Time // virtual time run after the job (tasks start, loads age)
}

// placeRecorder captures the worker each bound task was admitted to.
type placeRecorder struct {
	NopObserver
	got map[*trace.Job][]int
}

func (r *placeRecorder) OnEnqueue(d *Driver, w *Worker, e *Entry) {
	if e.Task != nil {
		r.got[e.Job.Job][e.Task.Index] = w.ID
	}
}

// placeRun is one side of a differential run.
type placeRun struct {
	d    *Driver
	rec  *placeRecorder
	jobs []*trace.Job
}

func newPlaceRun(t testing.TB, prog placeProgram, cl *cluster.Cluster, tr *trace.Trace) *placeRun {
	t.Helper()
	d, err := NewDriver(DefaultConfig(), cl, tr, &fifoScheduler{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Shards > 0 {
		plan, err := cluster.NewShardPlan(cl, prog.Shards)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.SetSharding(plan); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(prog.Seed))
	for id := range d.soa.backlog {
		switch prog.LoadMode {
		case 1:
			d.soa.backlog[id] = simulation.Time(rng.Intn(3)) * simulation.Second
		case 2:
			d.soa.backlog[id] = simulation.Time(rng.Int63n(int64(1000 * simulation.Second)))
		}
	}
	r := &placeRun{d: d, rec: &placeRecorder{got: map[*trace.Job][]int{}}}
	d.AttachObserver(r.rec)
	return r
}

// place runs job i of prog through place (the placer or the reference).
func (r *placeRun) place(prog placeProgram, i int, place func(*CentralPlacer, *Driver, *JobState)) {
	pj := prog.Jobs[i]
	d := r.d
	cl := d.Cluster()
	// Every per-job random draw comes from (Seed, i), so both sides and
	// every shrunk variant of the program see the same values.
	rng := rand.New(rand.NewSource(prog.Seed*7919 + int64(i)))
	tasks := make([]trace.Task, pj.Tasks)
	for k := range tasks {
		tasks[k] = trace.Task{ID: k, JobID: i, Index: k, Duration: 100000 * simulation.Second}
	}
	job := &trace.Job{ID: i, Placement: pj.Placement, Tasks: tasks}
	r.jobs = append(r.jobs, job)
	r.rec.got[job] = make([]int, pj.Tasks)
	for k := range r.rec.got[job] {
		r.rec.got[job][k] = -1
	}
	js := &JobState{Job: job, EstDur: pj.EstDur, Placement: pj.Placement}
	if pj.Constraint >= 0 {
		m := cl.Machine(rng.Intn(cl.Size()))
		dim := constraint.Dims[pj.Constraint%constraint.NumDims]
		op := constraint.Op(1 + pj.Constraint/constraint.NumDims%3)
		js.Constraints = constraint.Set{{Dim: dim, Op: op, Value: m.Attrs.Get(dim)}}
		js.ConstraintDims = js.Constraints.Dims()
		js.Constrained = true
	}
	p := &CentralPlacer{}
	if pj.Scored {
		scores := make([]float64, cl.Size())
		for k := range scores {
			if pj.ScoreTies {
				scores[k] = float64(rng.Intn(2))
			} else {
				scores[k] = rng.Float64()
			}
		}
		p.Score = func(w *Worker) float64 { return scores[w.ID] }
	}
	switch pj.Reserved {
	case 1:
		p.Reserved = bitset.New(cl.Size())
		density := rng.Intn(4)
		for k := 0; k < cl.Size(); k++ {
			if rng.Intn(4) < density {
				p.Reserved.Set(k)
			}
		}
	case 2:
		p.Reserved = bitset.New(cl.Size())
		p.Reserved.SetAll()
	}
	if prog.Shards > 0 {
		d.EnterShard(i % prog.Shards)
	}
	place(p, d, js)
	d.LeaveShard()
	d.engine.RunUntil(d.engine.Now() + pj.Advance)
}

// finish admits every in-flight placement so the recorder has seen it.
func (r *placeRun) finish() {
	r.d.engine.RunUntil(r.d.engine.Now() + 10*r.d.Config().NetworkDelay)
}

// referencePlaceJob is PlaceJob by definition: every task rescans the whole
// candidate set for the least (load, score, ID) worker.
func referencePlaceJob(p *CentralPlacer, d *Driver, js *JobState) {
	cands := d.CandidateWorkers(js)
	if p.Reserved != nil {
		avail := cands.Clone()
		_ = avail.AndNot(p.Reserved)
		if avail.Any() {
			cands = avail
		}
	}
	cl := d.Cluster()
	switch js.Placement {
	case trace.PlacementSpread:
		allowed := cands.Clone()
		for js.Unclaimed() > 0 {
			w := d.LeastBacklogInScored(allowed, p.Score)
			if w == nil {
				break
			}
			d.EnqueueTask(w, js, js.Claim())
			_ = allowed.AndNot(cl.RackMembers(cl.RackOf(w.ID)))
		}
		for js.Unclaimed() > 0 {
			d.collector.PlacementRelaxed++
			d.EnqueueTask(d.LeastBacklogInScored(cands, p.Score), js, js.Claim())
		}
	case trace.PlacementPack:
		counts := make([]int, cl.NumRacks())
		cands.ForEach(func(id int) bool {
			counts[cl.RackOf(id)]++
			return true
		})
		best, bestCount := -1, 0
		for rack, n := range counts {
			if n > bestCount {
				best, bestCount = rack, n
			}
		}
		if best < 0 {
			d.collector.PlacementRelaxed++
			referenceFree(p, d, js, cands)
			return
		}
		inRack := cands.Clone()
		_ = inRack.And(cl.RackMembers(best))
		referenceFree(p, d, js, inRack)
	default:
		referenceFree(p, d, js, cands)
	}
}

func referenceFree(p *CentralPlacer, d *Driver, js *JobState, cands *bitset.Set) {
	for js.Unclaimed() > 0 {
		d.EnqueueTask(d.LeastBacklogInScored(cands, p.Score), js, js.Claim())
	}
}

// diffPlacement runs prog on both sides and reports the first divergence.
func diffPlacement(t testing.TB, prog placeProgram) error {
	t.Helper()
	cl, err := cluster.GoogleProfile().GenerateCluster(prog.Workers, simulation.NewRNG(uint64(prog.Seed)).Stream("m"))
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{Name: "diff", NumNodes: cl.Size(), ShortCutoff: simulation.Second, Jobs: []trace.Job{{}}}
	got, want := newPlaceRun(t, prog, cl, tr), newPlaceRun(t, prog, cl, tr)
	for i := range prog.Jobs {
		got.place(prog, i, (*CentralPlacer).PlaceJob)
		want.place(prog, i, referencePlaceJob)
	}
	got.finish()
	want.finish()
	for i := range prog.Jobs {
		g, w := got.rec.got[got.jobs[i]], want.rec.got[want.jobs[i]]
		for k := range w {
			if g[k] != w[k] {
				return fmt.Errorf("job %d (%+v) task %d: placed on worker %d, reference %d\n  placer:    %v\n  reference: %v",
					i, prog.Jobs[i], k, g[k], w[k], g, w)
			}
		}
	}
	if g, w := got.d.Collector().PlacementRelaxed, want.d.Collector().PlacementRelaxed; g != w {
		return fmt.Errorf("PlacementRelaxed = %d, reference %d", g, w)
	}
	return nil
}

// randomPlaceProgram draws a program biased toward the selection's edge
// cases: load and score ties, k at or beyond the candidate count, fewer
// racks than tasks, partial last racks, reservations, sharded drivers.
func randomPlaceProgram(rng *rand.Rand) placeProgram {
	racks := 1 + rng.Intn(5)
	workers := racks * cluster.RackSize
	if rng.Intn(2) == 0 {
		workers -= 1 + rng.Intn(cluster.RackSize-1)
	}
	prog := placeProgram{Workers: workers, LoadMode: rng.Intn(3), Seed: rng.Int63n(1 << 30)}
	if rng.Intn(3) == 0 {
		prog.Shards = 2 + rng.Intn(2)
	}
	for n := 1 + rng.Intn(10); n > 0; n-- {
		pj := placeJob{
			Placement:  trace.Placement(rng.Intn(3)),
			Scored:     rng.Intn(2) == 0,
			ScoreTies:  rng.Intn(2) == 0,
			Reserved:   []int{0, 0, 1, 2}[rng.Intn(4)],
			Constraint: -1,
			Advance:    simulation.Time(rng.Intn(3)) * simulation.Second,
		}
		switch rng.Intn(3) {
		case 0:
			pj.Tasks = 1 + rng.Intn(4)
		case 1:
			pj.Tasks = 1 + rng.Intn(2*racks+2)
		default:
			pj.Tasks = 1 + rng.Intn(workers+cluster.RackSize)
		}
		switch rng.Intn(4) {
		case 0:
			pj.EstDur = 0
		case 1:
			pj.EstDur = -simulation.Time(1+rng.Intn(5)) * simulation.Second
		default:
			pj.EstDur = simulation.Time(1+rng.Intn(20)) * simulation.Second
		}
		if rng.Intn(2) == 0 {
			pj.Constraint = rng.Intn(3 * constraint.NumDims)
		}
		prog.Jobs = append(prog.Jobs, pj)
	}
	return prog
}

// shrinkPlaceProgram greedily minimizes a failing program: drop chunks of
// jobs (halving the chunk size), then shrink each job's task count, while
// the program still fails.
func shrinkPlaceProgram(t testing.TB, prog placeProgram) placeProgram {
	fails := func(p placeProgram) bool { return diffPlacement(t, p) != nil }
	for chunk := len(prog.Jobs) / 2; chunk >= 1; chunk /= 2 {
		for start := 0; start+chunk <= len(prog.Jobs) && len(prog.Jobs) > 1; {
			cand := prog
			cand.Jobs = append(append([]placeJob(nil), prog.Jobs[:start]...), prog.Jobs[start+chunk:]...)
			if len(cand.Jobs) > 0 && fails(cand) {
				prog = cand
			} else {
				start += chunk
			}
		}
	}
	for i := range prog.Jobs {
		for prog.Jobs[i].Tasks > 1 {
			cand := prog
			cand.Jobs = append([]placeJob(nil), prog.Jobs...)
			cand.Jobs[i].Tasks /= 2
			if !fails(cand) {
				break
			}
			prog = cand
		}
	}
	return prog
}

// TestCentralPlacementDifferential runs seeded random programs through
// PlaceJob and the brute-force reference; every task's worker must match.
func TestCentralPlacementDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 300
	if testing.Short() {
		n = 60
	}
	for i := 0; i < n; i++ {
		prog := randomPlaceProgram(rng)
		if err := diffPlacement(t, prog); err != nil {
			small := shrinkPlaceProgram(t, prog)
			t.Fatalf("program %d: %v\nshrunk reproducer: %#v\nshrunk failure: %v", i, err, small, diffPlacement(t, small))
		}
	}
}

// TestCentralPlacementDifferentialEdges pins the hand-picked edge cases the
// random mix reaches only by chance.
func TestCentralPlacementDifferentialEdges(t *testing.T) {
	progs := map[string]placeProgram{
		// One worker: k far beyond |cands|, every policy.
		"single-worker": {Workers: 1, Jobs: []placeJob{
			{Tasks: 3, Constraint: -1, EstDur: simulation.Second},
			{Tasks: 2, Placement: trace.PlacementSpread, Constraint: -1},
			{Tasks: 4, Placement: trace.PlacementPack, Constraint: -1, EstDur: -simulation.Second},
		}},
		// All loads equal, no score: pure ID order, then bump order.
		"all-equal-unscored": {Workers: 3*cluster.RackSize + 7, Jobs: []placeJob{
			{Tasks: 25, Constraint: -1, EstDur: simulation.Second},
			{Tasks: 5, Placement: trace.PlacementSpread, Constraint: -1},
			{Tasks: 50, Placement: trace.PlacementPack, Constraint: -1, EstDur: simulation.Second},
		}},
		// Zero estimate: bumps never move a key, so one worker takes all.
		"zero-estimate": {Workers: 2 * cluster.RackSize, LoadMode: 1, Seed: 3, Jobs: []placeJob{
			{Tasks: 9, Constraint: -1, Scored: true, ScoreTies: true},
		}},
		// Negative estimate: the chosen worker's key falls and it wins again.
		"negative-estimate": {Workers: 2 * cluster.RackSize, LoadMode: 2, Seed: 4, Jobs: []placeJob{
			{Tasks: 6, Constraint: -1, EstDur: -2 * simulation.Second},
			{Tasks: 6, Constraint: -1, EstDur: 3 * simulation.Second},
		}},
		// More spread tasks than racks, partial last rack, reservation.
		"spread-relaxes": {Workers: 2*cluster.RackSize + 3, LoadMode: 1, Seed: 5, Jobs: []placeJob{
			{Tasks: 7, Placement: trace.PlacementSpread, Constraint: -1, Reserved: 1, Scored: true},
		}},
		// Sharded: shard-interned candidate lists take the fast path.
		"sharded": {Workers: 4*cluster.RackSize - 11, Shards: 3, LoadMode: 2, Seed: 6, Jobs: []placeJob{
			{Tasks: 5, Constraint: -1, Scored: true},
			{Tasks: 4, Placement: trace.PlacementSpread, Constraint: -1},
			{Tasks: 8, Placement: trace.PlacementPack, Constraint: 0},
			{Tasks: 200, Constraint: -1, EstDur: simulation.Second},
		}},
	}
	for name, prog := range progs {
		t.Run(name, func(t *testing.T) {
			if err := diffPlacement(t, prog); err != nil {
				t.Fatal(err)
			}
		})
	}
}
