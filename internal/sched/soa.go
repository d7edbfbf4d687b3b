package sched

import (
	"math"
	"math/bits"

	"github.com/phoenix-sched/phoenix/internal/bitset"
	"github.com/phoenix-sched/phoenix/internal/simulation"
)

// workerSoA holds the per-worker load signals every placement scan reads,
// as parallel arrays indexed by worker ID (struct-of-arrays). The candidate
// probe/match scan — LeastBacklogIn over up to the whole cluster, run once
// per centrally placed task — used to chase one *Worker pointer per
// candidate; with the signals packed contiguously the scan streams two
// int64 arrays instead, which is what makes paper-scale placement
// cache-resident. Workers read and write their own slots through their
// embedded reference, so there is exactly one copy of the truth.
type workerSoA struct {
	// backlog is the summed estimated duration of queued and in-flight
	// entries per worker — reserved at placement time (see Worker.backlog's
	// former field comment, now Worker.QueuedWork). A gang reservation also
	// parks its expected hold here (added at reserve, removed at release),
	// so placement scans steer new work away from reserved slots without a
	// third array in the hot loadAt path.
	backlog []simulation.Time
	// runningEnds is the scheduled completion time of the running task, or
	// idleEnds when the slot is free. The sentinel keeps the load scan
	// branch-free: idleEnds never exceeds a valid clock, so the running
	// remainder contributes zero without consulting a separate busy flag.
	runningEnds []simulation.Time
	// resStartBy is the per-worker gang-reservation deadline (reservation.go),
	// or noReservation when the slot is unreserved. It stays nil until the
	// first ReserveWorker call, so runs that never reserve pay exactly one
	// nil check per dispatch and nothing on placement scans.
	resStartBy []simulation.Time
	// queueEpoch counts mutations of the queue CRV's inputs: every queue
	// push and delete, every failure and recovery, and every constraint
	// rewrite of a job. Driver.QueueCRV memoizes on it.
	queueEpoch uint64
}

// idleEnds marks a free execution slot in workerSoA.runningEnds.
const idleEnds = simulation.Time(-1)

// noReservation marks an unreserved slot in workerSoA.resStartBy.
const noReservation = simulation.Time(-1)

func newWorkerSoA(n int) *workerSoA {
	st := &workerSoA{
		backlog:     make([]simulation.Time, n),
		runningEnds: make([]simulation.Time, n),
	}
	for i := range st.runningEnds {
		st.runningEnds[i] = idleEnds
	}
	return st
}

// loadAt reports worker id's backlog plus the running task's remaining
// time at now — Worker.Backlog, inlined over the arrays.
func (st *workerSoA) loadAt(id int, now simulation.Time) simulation.Time {
	b := st.backlog[id]
	if e := st.runningEnds[id]; e > now {
		b += e - now
	}
	return b
}

// backlogHeap is the central placer's scratch selection over candidate
// workers keyed by (projected load, score, ID) — the exact order of
// LeastBacklogInScored, where ascending-ID iteration keeps the lowest ID
// among full ties. It is owned by the Driver and reused across placements
// (the event loop is single-threaded), so steady-state central placement
// allocates nothing.
//
// A fill keeps only the k smallest keys of its candidates (offer), then
// min-heapifies them (settle); placement then reads and bumps the root.
// That is exact for k bindings, not an approximation. (load, score, ID) is
// a total order, and each binding raises (or, for a negative estimate,
// lowers) only the chosen worker's key. At pick i at most i-1 workers have
// been bumped, so at least one of the k smallest initial keys is still
// unbumped, and it beats every worker outside that set, whose keys never
// moved. Hence every one of the k picks lies in the k-smallest set, and
// selecting among it picks identically to rescanning all candidates — for
// any sign of the bump. The scan is O(|cands|) with one compare per
// rejected candidate, plus O(k log k) for the survivors.
type backlogHeap struct {
	b  []simulation.Time
	s  []float64
	id []int32
	// k bounds the current fill: offer keeps the k smallest keys.
	k int
}

// less orders heap slots by (load, score, worker ID).
func (h *backlogHeap) less(i, j int) bool {
	return keyLess(h.b[i], h.s[i], h.id[i], h.b[j], h.s[j], h.id[j])
}

// keyLess is the (load, score, ID) order over unpacked keys.
func keyLess(b1 simulation.Time, s1 float64, id1 int32, b2 simulation.Time, s2 float64, id2 int32) bool {
	if b1 != b2 {
		return b1 < b2
	}
	if s1 != s2 {
		return s1 < s2
	}
	return id1 < id2
}

func (h *backlogHeap) swap(i, j int) {
	h.b[i], h.b[j] = h.b[j], h.b[i]
	h.s[i], h.s[j] = h.s[j], h.s[i]
	h.id[i], h.id[j] = h.id[j], h.id[i]
}

// siftDown restores min-heap order below slot i.
func (h *backlogHeap) siftDown(i int) {
	n := len(h.b)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.less(l, min) {
			min = l
		}
		if r < n && h.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		h.swap(i, min)
		i = min
	}
}

// siftDownMax restores max-heap order below slot i (the bounded fill's
// largest-survivor root).
func (h *backlogHeap) siftDownMax(i int) {
	n := len(h.b)
	for {
		l, r := 2*i+1, 2*i+2
		max := i
		if l < n && h.less(max, l) {
			max = l
		}
		if r < n && h.less(max, r) {
			max = r
		}
		if max == i {
			return
		}
		h.swap(i, max)
		i = max
	}
}

// reset empties the heap for a fill that keeps the k smallest keys,
// keeping capacity.
func (h *backlogHeap) reset(k int) {
	h.b = h.b[:0]
	h.s = h.s[:0]
	h.id = h.id[:0]
	h.k = k
}

// full reports whether the fill holds k survivors, so that the root is the
// largest of them and a candidate must beat it to enter.
func (h *backlogHeap) full() bool { return len(h.b) == h.k }

// admits reports whether a candidate enters the fill: always while fewer
// than k are held, otherwise only by beating the largest survivor at the
// root. Callers test it inline so that a rejection costs no call.
func (h *backlogHeap) admits(b simulation.Time, s float64, id int32) bool {
	return len(h.b) < h.k || keyLess(b, s, id, h.b[0], h.s[0], h.id[0])
}

// offer adds an admitted candidate, keeping the k smallest keys seen.
// Until k are held the slots are an unordered array; the k-th turns them
// into a max-heap, after which a candidate replaces the largest survivor.
func (h *backlogHeap) offer(b simulation.Time, s float64, id int32) {
	if n := len(h.b); n < h.k {
		h.b = append(h.b, b)
		h.s = append(h.s, s)
		h.id = append(h.id, id)
		if n+1 == h.k {
			for i := h.k/2 - 1; i >= 0; i-- {
				h.siftDownMax(i)
			}
		}
		return
	}
	h.b[0], h.s[0], h.id[0] = b, s, id
	h.siftDownMax(0)
}

// settle ends a fill: it min-heapifies the survivors, so the root is the
// least-loaded candidate for bumpMin and popMin.
func (h *backlogHeap) settle() {
	for i := len(h.b)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// empty reports whether the heap holds no candidates.
func (h *backlogHeap) empty() bool { return len(h.b) == 0 }

// bumpMin adds delta to the minimum candidate's load (a task was just
// bound there) and restores heap order.
func (h *backlogHeap) bumpMin(delta simulation.Time) {
	h.b[0] += delta
	h.siftDown(0)
}

// popMin discards the minimum candidate and restores heap order.
func (h *backlogHeap) popMin() {
	last := len(h.b) - 1
	h.swap(0, last)
	h.b = h.b[:last]
	h.s = h.s[:last]
	h.id = h.id[:last]
	h.siftDown(0)
}

// fillBacklogHeap fills h with the k smallest (load, score, ID) keys among
// cands at their current load, ready for k bindings (see backlogHeap).
// Scores are stable within one placement — nothing that feeds them runs
// between claims — so sampling them once here equals the per-task rescan;
// a candidate already beaten on load alone is never scored.
func (d *Driver) fillBacklogHeap(h *backlogHeap, cands *bitset.Set, score func(*Worker) float64, k int) {
	h.reset(k)
	if k <= 0 {
		return
	}
	now := d.engine.Now()
	st := d.soa
	if sh := d.shard; sh != nil {
		if m := sh.plan.Lookup(cands); m != nil {
			// Shard-interned candidate set: iterate its precomputed ID
			// list (ascending, same visit order as the word scan below)
			// instead of ranking bitset words.
			for _, id32 := range m.IDs {
				id := int(id32)
				b := st.loadAt(id, now)
				if h.full() && b > h.b[0] {
					continue
				}
				var s float64
				if score != nil {
					s = score(d.workers[id])
				}
				if h.admits(b, s, id32) {
					h.offer(b, s, id32)
				}
			}
			h.settle()
			return
		}
	}
	d.fillRange(h, cands, 0, cands.Len(), score)
	h.settle()
}

// fillRange offers every candidate with an ID in [lo, hi) to h, in
// ascending ID order, without settling it.
func (d *Driver) fillRange(h *backlogHeap, cands *bitset.Set, lo, hi int, score func(*Worker) float64) {
	now := d.engine.Now()
	st := d.soa
	words := cands.Words()
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		word := maskedWord(words, wi, lo, hi)
		for word != 0 {
			id := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			b := st.loadAt(id, now)
			if h.full() && b > h.b[0] {
				continue
			}
			var s float64
			if score != nil {
				s = score(d.workers[id])
			}
			if h.admits(b, s, int32(id)) {
				h.offer(b, s, int32(id))
			}
		}
	}
}

// maskedWord returns words[wi] restricted to the bits of IDs in [lo, hi);
// wi must lie in that range's words.
func maskedWord(words []uint64, wi, lo, hi int) uint64 {
	w := words[wi]
	if wi == lo>>6 {
		w &= ^uint64(0) << (uint(lo) & 63)
	}
	if (wi+1)<<6 > hi {
		w &= 1<<(uint(hi)&63) - 1
	}
	return w
}

// LeastBacklog returns the worker with the smallest backlog among ws,
// breaking ties by lower ID for determinism. Empty input returns nil.
func (d *Driver) LeastBacklog(ws []*Worker) *Worker {
	if len(ws) == 0 {
		return nil
	}
	now := d.engine.Now()
	best := ws[0]
	bestB := best.Backlog(now)
	for _, w := range ws[1:] {
		b := w.Backlog(now)
		if b < bestB || (b == bestB && w.ID < best.ID) {
			best = w
			bestB = b
		}
	}
	return best
}

// LeastBacklogIn returns the least-backlog worker in the candidate bitset,
// scanning the whole set (the centralized placer's global view).
func (d *Driver) LeastBacklogIn(cands *bitset.Set) *Worker {
	return d.LeastBacklogInScored(cands, nil)
}

// LeastBacklogInScored returns the least-backlog worker in the candidate
// bitset, breaking backlog ties by the lowest score (then lowest ID). A
// constraint-aware placer passes a scarcity score so that, load being
// equal, long work lands on the workers constrained tasks want least.
//
// The scan walks the candidate words directly against the struct-of-arrays
// load signals: no per-bit callback, no *Worker dereference unless a score
// function needs one.
func (d *Driver) LeastBacklogInScored(cands *bitset.Set, score func(*Worker) float64) *Worker {
	now := d.engine.Now()
	st := d.soa
	bestID := -1
	bestB := simulation.MaxTime
	bestS := math.Inf(1)
	if sh := d.shard; sh != nil {
		if m := sh.plan.Lookup(cands); m != nil {
			// Shard-interned candidate set: scan its precomputed ID list
			// (ascending, the word scan's visit order) so the shard-local
			// scan length is O(members), not O(cluster/64).
			for _, id32 := range m.IDs {
				id := int(id32)
				b := st.loadAt(id, now)
				if b > bestB {
					continue
				}
				var s float64
				if score != nil {
					s = score(d.workers[id])
				}
				if bestID < 0 || b < bestB || s < bestS {
					bestID = id
					bestB = b
					bestS = s
				}
			}
			if bestID < 0 {
				return nil
			}
			return d.workers[bestID]
		}
	}
	for wi, word := range cands.Words() {
		for word != 0 {
			id := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			b := st.loadAt(id, now)
			if b > bestB {
				continue
			}
			var s float64
			if score != nil {
				s = score(d.workers[id])
			}
			if bestID < 0 || b < bestB || s < bestS {
				bestID = id
				bestB = b
				bestS = s
			}
		}
	}
	if bestID < 0 {
		return nil
	}
	return d.workers[bestID]
}
