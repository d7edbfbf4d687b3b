package sched

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"github.com/phoenix-sched/phoenix/internal/bitset"
	"github.com/phoenix-sched/phoenix/internal/cluster"
	"github.com/phoenix-sched/phoenix/internal/simulation"
	"github.com/phoenix-sched/phoenix/internal/trace"
)

// Layer microbenchmarks for central placement and probe sampling at paper
// scale (15,000 workers). Each candidate path runs beside a reference
// sub-benchmark in the same process, so the candidate/reference ratio is
// comparable across hosts where absolute ns/op is not. The references are
// the implementations the bounded selection and the batched select
// replaced, kept here (and only here) for that comparison.

const (
	benchWorkers = 15000
	benchTasks   = 19 // bindings per long job in the google reference run
	benchProbes  = 20
	benchEst     = 30 * simulation.Second
)

// placementFixture is a driver with a realistic load mix — idle workers
// tied at zero load among busy ones — a candidate set of about 60% of the
// cluster, and a tie-heavy score.
type placementFixture struct {
	d     *Driver
	p     *CentralPlacer
	cands *bitset.Set
}

func newPlacementFixture(tb testing.TB, workers int) *placementFixture {
	tb.Helper()
	cl, err := cluster.GoogleProfile().GenerateCluster(workers, simulation.NewRNG(1).Stream("m"))
	if err != nil {
		tb.Fatal(err)
	}
	tr := &trace.Trace{Name: "bench", NumNodes: workers, ShortCutoff: simulation.Second, Jobs: []trace.Job{{}}}
	d, err := NewDriver(DefaultConfig(), cl, tr, &fifoScheduler{}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	scores := make([]float64, workers)
	cands := bitset.New(workers)
	for id := 0; id < workers; id++ {
		if rng.Intn(10) >= 3 {
			d.soa.backlog[id] = simulation.Time(rng.Int63n(int64(600 * simulation.Second)))
		}
		scores[id] = float64(rng.Intn(8))
		if rng.Intn(10) < 6 {
			cands.Set(id)
		}
	}
	p := &CentralPlacer{Score: func(w *Worker) float64 { return scores[w.ID] }}
	return &placementFixture{d: d, p: p, cands: cands}
}

// fillBacklogHeapFull is the fill the bounded selection replaced: every
// candidate loaded and scored, then the whole set heapified.
func (d *Driver) fillBacklogHeapFull(h *backlogHeap, cands *bitset.Set, score func(*Worker) float64) {
	h.reset(0)
	now := d.engine.Now()
	for wi, word := range cands.Words() {
		for word != 0 {
			id := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			var s float64
			if score != nil {
				s = score(d.workers[id])
			}
			h.b = append(h.b, d.soa.loadAt(id, now))
			h.s = append(h.s, s)
			h.id = append(h.id, int32(id))
		}
	}
	h.settle()
}

// placementRef holds the reference pickers' scratch, so that they too run
// allocation-free and the comparison prices selection work alone. (The
// replaced pack path also cloned the candidate set and built a rack bitset
// per job; the reference reuses both.)
type placementRef struct {
	picks  []int32
	used   []bool
	counts []int
	inRack *bitset.Set
	racks  []*bitset.Set
}

func newPlacementRef(d *Driver) *placementRef {
	cl := d.Cluster()
	r := &placementRef{
		used:   make([]bool, cl.NumRacks()),
		counts: make([]int, cl.NumRacks()),
		inRack: bitset.New(cl.Size()),
	}
	for rack := 0; rack < cl.NumRacks(); rack++ {
		r.racks = append(r.racks, cl.RackMembers(rack))
	}
	return r
}

// free is the replaced placeFree selection: full heap, k root bumps.
func (r *placementRef) free(d *Driver, p *CentralPlacer, cands *bitset.Set, k int, est simulation.Time) []int32 {
	h := &d.placeHeap
	d.fillBacklogHeapFull(h, cands, p.Score)
	r.picks = r.picks[:0]
	for len(r.picks) < k && !h.empty() {
		r.picks = append(r.picks, h.id[0])
		h.bumpMin(est)
	}
	return r.picks
}

// spread is the replaced placeSpread distinct-racks phase: full heap with
// lazy deletion of claimed racks.
func (r *placementRef) spread(d *Driver, p *CentralPlacer, cands *bitset.Set, k int) []int32 {
	cl := d.Cluster()
	clear(r.used)
	h := &d.placeHeap
	d.fillBacklogHeapFull(h, cands, p.Score)
	r.picks = r.picks[:0]
	for len(r.picks) < k {
		for !h.empty() && r.used[cl.RackOf(int(h.id[0]))] {
			h.popMin()
		}
		if h.empty() {
			break
		}
		r.used[cl.RackOf(int(h.id[0]))] = true
		r.picks = append(r.picks, h.id[0])
	}
	return r.picks
}

// pack is the replaced placePack selection: per-rack counts, the winning
// rack's candidates intersected out, then the free selection over them.
func (r *placementRef) pack(d *Driver, p *CentralPlacer, cands *bitset.Set, k int, est simulation.Time) []int32 {
	cl := d.Cluster()
	clear(r.counts)
	for wi, word := range cands.Words() {
		for word != 0 {
			id := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			r.counts[cl.RackOf(id)]++
		}
	}
	best, bestCount := -1, 0
	for rack, n := range r.counts {
		if n > bestCount {
			best, bestCount = rack, n
		}
	}
	_ = r.inRack.CopyFrom(cands)
	_ = r.inRack.And(r.racks[best])
	return r.free(d, p, r.inRack, k, est)
}

// BenchmarkCentralPlacement prices one long job's selection — the workers
// its benchTasks tasks bind to, without the binding itself — for each
// placement policy, bounded top-k selection ("topk") against the full
// heapify it replaced ("reference"). Both report 0 allocs/op.
func BenchmarkCentralPlacement(b *testing.B) {
	f := newPlacementFixture(b, benchWorkers)
	d, p, cands := f.d, f.p, f.cands
	ref := newPlacementRef(d)
	pickPack := func() []int32 {
		picks, _ := p.pickPack(d, cands, benchTasks, benchEst)
		return picks
	}
	cases := []struct {
		name      string
		topk, ref func() []int32
	}{
		{"free",
			func() []int32 { return p.pickFree(d, cands, benchTasks, benchEst) },
			func() []int32 { return ref.free(d, p, cands, benchTasks, benchEst) }},
		{"spread",
			func() []int32 { return p.pickRackMinima(d, cands, benchTasks) },
			func() []int32 { return ref.spread(d, p, cands, benchTasks) }},
		{"pack",
			pickPack,
			func() []int32 { return ref.pack(d, p, cands, benchTasks, benchEst) }},
	}
	for _, c := range cases {
		if got, want := slices.Clone(c.topk()), c.ref(); !slices.Equal(got, want) {
			b.Fatalf("%s: top-k picks %v, reference %v", c.name, got, want)
		}
		b.Run(c.name+"/topk", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.topk()
			}
		})
		b.Run(c.name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.ref()
			}
		})
	}
}

// BenchmarkSampleWorkers prices SampleWorkers' rank-to-worker step for one
// draw of benchProbes ranks: the batched select ("batch", one
// prefix-popcount pass) against one NthSet rescan per rank ("reference").
// The draw itself (simulation.Stream.SampleWithoutReplacement) is common
// to both and excluded. Both report 0 allocs/op.
func BenchmarkSampleWorkers(b *testing.B) {
	f := newPlacementFixture(b, benchWorkers)
	d, cands := f.d, f.cands
	drawn := d.Stream("bench").SampleWithoutReplacement(cands.Count(), benchProbes)
	ranks := make([]int, len(drawn))
	out := make([]*Worker, 0, len(drawn))
	copy(ranks, drawn)
	d.workersAtRanks(out, cands, ranks) // grow the driver's scratch
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(ranks, drawn)
			out = d.workersAtRanks(out[:0], cands, ranks)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out = out[:0]
			for _, r := range drawn {
				if id := cands.NthSet(r); id >= 0 {
					out = append(out, d.workers[id])
				}
			}
		}
	})
}

// TestPlacementSelectionAllocFree holds the steady-state contract the
// benchmarks report: once the driver's scratch has grown, selection and
// rank-to-worker mapping allocate nothing.
func TestPlacementSelectionAllocFree(t *testing.T) {
	f := newPlacementFixture(t, 2000)
	d, p, cands := f.d, f.p, f.cands
	drawn := d.Stream("t").SampleWithoutReplacement(cands.Count(), benchProbes)
	ranks := make([]int, len(drawn))
	out := make([]*Worker, 0, len(drawn))
	paths := map[string]func(){
		"free":   func() { p.pickFree(d, cands, benchTasks, benchEst) },
		"spread": func() { p.pickRackMinima(d, cands, benchTasks) },
		"pack":   func() { p.pickPack(d, cands, benchTasks, benchEst) },
		"sample": func() {
			copy(ranks, drawn)
			out = d.workersAtRanks(out[:0], cands, ranks)
		},
	}
	for name, fn := range paths {
		fn() // grow scratch
		if n := testing.AllocsPerRun(20, fn); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, n)
		}
	}
}
