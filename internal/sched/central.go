package sched

import (
	"math/bits"

	"github.com/phoenix-sched/phoenix/internal/bitset"
	"github.com/phoenix-sched/phoenix/internal/cluster"
	"github.com/phoenix-sched/phoenix/internal/simulation"
	"github.com/phoenix-sched/phoenix/internal/trace"
)

// CentralPlacer is the centralized long-job scheduler shared by the hybrid
// designs (Hawk, Eagle, Phoenix): it holds a global view of worker backlogs
// and binds each long task early to the least-loaded worker that satisfies
// the job's constraints. It also implements the paper's third constraint
// class (§III-A), rack placement constraints: spread (anti-affinity, tasks
// on distinct racks) and pack (affinity, tasks co-located on one rack) —
// combinatorial decisions that need the global view, which is why the
// fully distributed designs cannot honor them.
type CentralPlacer struct {
	// Reserved optionally excludes a partition of workers kept for short
	// jobs (Hawk's reserved partition). When every candidate lies inside
	// the reserved partition, the reservation yields — constraints beat
	// the partition, otherwise the job could never run.
	Reserved *bitset.Set
	// Score optionally makes placement constraint-aware: among equally
	// backlogged candidates, the lowest-scoring worker wins. Phoenix
	// scores workers by how much constrained demand they could satisfy,
	// keeping long work off the machines that scarce constrained tasks
	// have no alternative to. The function must be stable across one
	// PlaceJob call (nothing runs between task bindings that could change
	// it) and free of side effects: placement samples a candidate's score
	// at most once per job, and not at all when its load alone rules it
	// out.
	Score func(*Worker) float64
}

// PlaceJob binds every task of js, honoring the job's placement policy.
// It claims all tasks, so late-binding probes must not be used for the
// same job.
func (p *CentralPlacer) PlaceJob(d *Driver, js *JobState) {
	cands := d.CandidateWorkers(js)
	if p.Reserved != nil {
		avail := cands.Clone()
		// AndNot cannot fail: both sets span the cluster.
		_ = avail.AndNot(p.Reserved)
		if avail.Any() {
			cands = avail
		}
	}
	switch js.Placement {
	case trace.PlacementSpread:
		p.placeSpread(d, js, cands)
	case trace.PlacementPack:
		p.placePack(d, js, cands)
	default:
		p.placeFree(d, js, cands)
	}
}

// placeFree binds each task to the overall least-backlogged candidate.
//
// Binding a task moves only the chosen worker's backlog (reserve charges
// it immediately; no event fires mid-loop), so instead of rescanning the
// candidate set per task — O(tasks x |cands|) — the placer selects the
// job's bindings from the driver's backlog heap, filled once with the
// tasks' worth of smallest keys, and pays one root-bump per binding; the
// selection sequence is identical (see backlogHeap).
func (p *CentralPlacer) placeFree(d *Driver, js *JobState, cands *bitset.Set) {
	d.bindPicks(js, p.pickFree(d, cands, js.Unclaimed(), js.EstDur), false)
}

// pickFree returns k free-placement bindings over cands, each task's
// estimate bumping its worker before the next pick.
func (p *CentralPlacer) pickFree(d *Driver, cands *bitset.Set, k int, est simulation.Time) []int32 {
	d.fillBacklogHeap(&d.placeHeap, cands, p.Score, k)
	return d.takeLeast(k, est)
}

// placeSpread binds each task to the least-backlogged candidate on a rack
// no earlier task of the job used. When the candidates span fewer racks
// than the job has tasks, rack reuse is unavoidable; the fallback reuses
// racks and the relaxation is counted (the placement constraint is a
// preference, not a hard requirement — §III-A).
//
// In the distinct-racks phase a placed worker's rack is banned for the
// rest of the phase, so its bump never influences a later pick and every
// other key is frozen: pick i is the i-th smallest per-rack minimum. The
// phase is therefore one ascending scan that keeps each rack's minimum
// (racks are contiguous ID ranges, so a rack is done when the scan leaves
// it), a bounded selection of the smallest k rack minima, and k pops. Once
// the candidate racks are exhausted the relaxation phase is placeFree over
// the remaining tasks at post-phase-one backlogs, each binding counted as
// a relaxed placement.
func (p *CentralPlacer) placeSpread(d *Driver, js *JobState, cands *bitset.Set) {
	d.bindPicks(js, p.pickRackMinima(d, cands, js.Unclaimed()), false)
	if k := js.Unclaimed(); k > 0 {
		d.bindPicks(js, p.pickFree(d, cands, k, js.EstDur), true)
	}
}

// pickRackMinima returns the distinct-racks phase of placeSpread: the
// minimum-key candidate of each of the (up to) k candidate racks with the
// smallest minima, in ascending key order.
func (p *CentralPlacer) pickRackMinima(d *Driver, cands *bitset.Set, k int) []int32 {
	picks := d.placePicks[:0]
	if k <= 0 {
		return picks
	}
	h := &d.placeHeap
	h.reset(k)
	now := d.engine.Now()
	st := d.soa
	cl := d.cl
	rack := -1
	var minB simulation.Time
	var minS float64
	var minID int32
	for wi, word := range cands.Words() {
		for word != 0 {
			id := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			b := st.loadAt(id, now)
			r := cl.RackOf(id)
			if r == rack && b > minB {
				continue
			}
			var s float64
			if p.Score != nil {
				s = p.Score(d.workers[id])
			}
			if r != rack {
				if rack >= 0 && h.admits(minB, minS, minID) {
					h.offer(minB, minS, minID)
				}
				rack, minB, minS, minID = r, b, s, int32(id)
			} else if b < minB || s < minS {
				// Ascending IDs: a full tie keeps the earlier, lower ID.
				minB, minS, minID = b, s, int32(id)
			}
		}
	}
	if rack >= 0 && h.admits(minB, minS, minID) {
		h.offer(minB, minS, minID)
	}
	h.settle()
	for !h.empty() {
		picks = append(picks, h.id[0])
		h.popMin()
	}
	d.placePicks = picks
	return picks
}

// placePack binds all tasks inside the single candidate rack with the most
// satisfying workers (ties to the lower rack), spreading across that
// rack's workers by backlog.
func (p *CentralPlacer) placePack(d *Driver, js *JobState, cands *bitset.Set) {
	picks, ok := p.pickPack(d, cands, js.Unclaimed(), js.EstDur)
	if !ok {
		// No candidate rack to pack into (defensive: the rack is derived
		// from cands, so this needs an empty candidate set). Falling back
		// to free placement abandons the affinity preference, which is a
		// relaxation and is accounted as one, like placeSpread's.
		d.collector.PlacementRelaxed++
		p.placeFree(d, js, cands)
		return
	}
	d.bindPicks(js, picks, false)
}

// pickPack returns k bindings inside the pack rack (packRack), selected
// like pickFree over that rack's ID range only; ok is false when cands is
// empty and there is no rack to pack into.
func (p *CentralPlacer) pickPack(d *Driver, cands *bitset.Set, k int, est simulation.Time) (picks []int32, ok bool) {
	rack := packRack(d.cl, cands)
	if rack < 0 {
		return nil, false
	}
	h := &d.placeHeap
	h.reset(k)
	if k > 0 {
		lo := rack * cluster.RackSize
		d.fillRange(h, cands, lo, min(lo+cluster.RackSize, d.cl.Size()), p.Score)
		h.settle()
	}
	return d.takeLeast(k, est), true
}

// packRack returns the rack holding the most candidates, the lowest among
// ties, or -1 for an empty candidate set. Racks are contiguous ID ranges,
// so each rack's count is a popcount over at most two masked words.
func packRack(cl *cluster.Cluster, cands *bitset.Set) int {
	words := cands.Words()
	best, bestCount := -1, 0
	for rack, lo := 0, 0; lo < cl.Size(); rack, lo = rack+1, lo+cluster.RackSize {
		hi := min(lo+cluster.RackSize, cl.Size())
		count := 0
		for wi := lo >> 6; wi<<6 < hi; wi++ {
			count += bits.OnesCount64(maskedWord(words, wi, lo, hi))
		}
		// A strict > over ascending racks keeps the lowest rack among
		// count ties.
		if count > bestCount {
			best, bestCount = rack, count
		}
	}
	return best
}

// takeLeast returns up to k bindings from the filled placement heap: each
// the current minimum, which is then bumped by the bound task's estimate.
func (d *Driver) takeLeast(k int, bump simulation.Time) []int32 {
	h := &d.placeHeap
	picks := d.placePicks[:0]
	for len(picks) < k && !h.empty() {
		picks = append(picks, h.id[0])
		h.bumpMin(bump)
	}
	d.placePicks = picks
	return picks
}

// bindPicks binds js's next unclaimed tasks, in order, to the picked
// workers; relaxed counts each binding as a relaxed placement.
func (d *Driver) bindPicks(js *JobState, picks []int32, relaxed bool) {
	for _, id := range picks {
		t := js.Claim()
		if t == nil {
			return
		}
		if relaxed {
			d.collector.PlacementRelaxed++
		}
		d.EnqueueTask(d.workers[id], js, t)
	}
}
