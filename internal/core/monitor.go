package core

import (
	"math/bits"

	"github.com/phoenix-sched/phoenix/internal/bitset"
	"github.com/phoenix-sched/phoenix/internal/constraint"
	"github.com/phoenix-sched/phoenix/internal/sched"
)

// Monitor is the CRV node monitor (Figure 5's CRV_Monitor +
// CRV_Lookup_Table): it owns the cluster-wide Constraint Resource Vector,
// the per-worker waiting-time estimates, and the set of workers marked for
// CRV-based reordering. It refreshes on every heartbeat.
type Monitor struct {
	// vector is the current CRV: per dimension, queued demand divided by
	// satisfying supply.
	vector constraint.Vector
	// lastWait[w] is the latest P-K waiting-time estimate for worker w,
	// in seconds (+Inf when saturated).
	lastWait []float64
	// marked[w] reports whether worker w's estimated wait exceeds the
	// Qwait threshold; markedCount is how many are set.
	marked      []bool
	markedCount int
	// flipped lists the workers whose mark changed since the scheduler
	// last consumed the list (Scheduler.OnHeartbeat), so the policy flip
	// touches only those.
	flipped []int32
	// hot reports whether any CRV element exceeds the CRV threshold —
	// the global switch between SRPT and CRV reordering.
	hot bool
	// demandCredit[w] accumulates, with exponential decay per heartbeat,
	// how much constrained demand worker w could have served: every
	// constrained job adds 1/|candidates| to each of its candidate
	// workers. High-credit workers are the scarce supply constrained
	// tasks depend on; Phoenix's constraint-aware long-job placement
	// breaks load ties away from them.
	demandCredit []float64
	// heartbeats counts monitor refreshes.
	heartbeats int64
	// samples accumulates (estimate, realized) waiting-time pairs when
	// estimate validation is enabled.
	samples []EstimateSample
}

// EstimateSample pairs the P-K waiting-time estimate a worker carried at
// the last heartbeat with the wait an entry actually experienced in that
// worker's queue. Used by the estimator-accuracy experiment (§VI-C).
type EstimateSample struct {
	// EstimateSeconds is the monitor's last E[W] for the worker (may be
	// +Inf when the estimator saw saturation).
	EstimateSeconds float64
	// RealizedSeconds is the queue wait the started entry experienced.
	RealizedSeconds float64
}

// NewMonitor sizes the monitor for a cluster of n workers.
func NewMonitor(n int) *Monitor {
	return &Monitor{
		lastWait:     make([]float64, n),
		marked:       make([]bool, n),
		demandCredit: make([]float64, n),
	}
}

// demandDecay is the per-heartbeat retention of demand credit: old demand
// fades over a few intervals, so the placement signal tracks the current
// constraint mix rather than the whole history.
const demandDecay = 0.5

// ObserveDemand credits every candidate worker of a constrained job with
// the job's scarcity weight, 1/|candidates|^2: each candidate carries
// 1/|cands| of the job's demand, and the cost of losing one candidate to a
// long task grows with another 1/|cands| factor because a small candidate
// pool has no slack to absorb it. The quadratic weight is what lets the
// few workers behind rare hardware outrank the broad population behind
// popular constraints. Called at submission time for constrained short
// jobs.
func (m *Monitor) ObserveDemand(cands *bitset.Set) {
	n := cands.Count()
	if n == 0 {
		return
	}
	share := 1 / (float64(n) * float64(n))
	// Word-wise scan in ascending ID order — same visit order as ForEach
	// (so the float64 accumulation is identical) without the per-bit
	// callback.
	for wi, word := range cands.Words() {
		base := wi << 6
		for word != 0 {
			m.demandCredit[base+bits.TrailingZeros64(word)] += share
			word &= word - 1
		}
	}
}

// DemandCredit reports worker w's current constrained-demand credit.
func (m *Monitor) DemandCredit(w int) float64 { return m.demandCredit[w] }

// ObserveRealized records a realized queue wait against the worker's
// current estimate, for accuracy validation.
func (m *Monitor) ObserveRealized(w int, waitSeconds float64) {
	m.samples = append(m.samples, EstimateSample{
		EstimateSeconds: m.lastWait[w],
		RealizedSeconds: waitSeconds,
	})
}

// EstimateSamples returns the accumulated (estimate, realized) pairs. The
// slice is shared; callers must not mutate it.
func (m *Monitor) EstimateSamples() []EstimateSample { return m.samples }

// Vector returns the current CRV.
func (m *Monitor) Vector() constraint.Vector { return m.vector }

// Hot reports whether any dimension's CRV ratio exceeds the threshold as of
// the last refresh.
func (m *Monitor) Hot() bool { return m.hot }

// Marked reports whether worker w was marked congested at the last refresh.
func (m *Monitor) Marked(w int) bool { return m.marked[w] }

// MarkedCount reports how many workers were marked congested at the last
// refresh.
func (m *Monitor) MarkedCount() int { return m.markedCount }

// Wait returns worker w's latest estimated waiting time in seconds.
func (m *Monitor) Wait(w int) float64 { return m.lastWait[w] }

// Heartbeats reports how many refreshes have run.
func (m *Monitor) Heartbeats() int64 { return m.heartbeats }

// Refresh recomputes the CRV and the per-worker estimates (the body of
// Algorithm 1's CRV_MONITOR procedure), then returns whether CRV-based
// reordering should be active (some dimension over the CRV threshold).
//
// Demand/supply: every queued constrained entry adds, to each dimension it
// constrains, one task spread over the workers that could serve that
// constraint — 1/supply. Summed over the queue backlog this yields, per
// dimension, the expected number of queued tasks per satisfying worker: the
// CRV demand/supply ratio of §IV-A. The vector is the driver's shared
// Driver.QueueCRV, so telemetry and admission read the same scan.
//
// Estimates: every worker in scope is re-read each refresh, but through
// Worker.WaitEstimate's memo, which recomputes only the estimates the
// driver has fed since; the marked count and the list of flipped marks are
// kept as the marks are written.
func (m *Monitor) Refresh(d *sched.Driver, crvThreshold, qwaitThresholdSeconds float64) bool {
	m.heartbeats++
	for i := range m.demandCredit {
		m.demandCredit[i] *= demandDecay
	}
	m.vector = d.QueueCRV()
	m.hot = m.vector.AnyAbove(crvThreshold)

	for _, w := range d.Workers() {
		m.update(w, qwaitThresholdSeconds)
	}
	return m.hot
}

// update re-derives worker w's estimate and its mark against the Qwait
// threshold, keeping markedCount and the flipped list.
func (m *Monitor) update(w *sched.Worker, qwait float64) {
	wait, _ := w.WaitEstimate() // +Inf when saturated
	m.lastWait[w.ID] = wait
	mark := wait > qwait
	if mark == m.marked[w.ID] {
		return
	}
	m.marked[w.ID] = mark
	if mark {
		m.markedCount++
	} else {
		m.markedCount--
	}
	m.flipped = append(m.flipped, int32(w.ID))
}
