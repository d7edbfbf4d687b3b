package sched

import (
	"github.com/phoenix-sched/phoenix/internal/constraint"
	"github.com/phoenix-sched/phoenix/internal/simulation"
	"github.com/phoenix-sched/phoenix/internal/trace"
)

// JobState is the driver's bookkeeping for one in-flight job.
type JobState struct {
	// Job is the underlying trace job.
	Job *trace.Job
	// EstDur is the estimated per-task duration used by SRPT (the job's
	// mean task duration; the simulators assume known estimates).
	EstDur simulation.Time
	// Constraints is the effective constraint set after any admission
	// control (may be a relaxed version of the job's own set).
	Constraints constraint.Set
	// ConstraintDims caches Constraints.Dims().
	ConstraintDims constraint.DimMask
	// Short is the scheduler-visible classification (mean task duration
	// against the trace's cutoff, as Hawk and Eagle classify).
	Short bool
	// Constrained reports whether the job arrived with constraints (even
	// if admission later relaxed them).
	Constrained bool
	// Relaxed reports that admission control dropped soft constraints.
	Relaxed bool
	// Placement is the job's rack affinity policy (spread/pack/none).
	Placement trace.Placement

	nextClaim int32
	done      int32
	maxWait   simulation.Time
	sumWait   simulation.Time

	// supply caches the driver's unscoped LiveSupplyOne of each of
	// Constraints, valid while supplyEpoch equals the driver's supply
	// epoch (Driver.jobSupply); a constraint rewrite zeroes supplyEpoch.
	// The memo is inline, so it costs no allocation, and the flags and
	// claim counters above are packed so that it adds only 16 bytes.
	supplyEpoch uint64
	supply      [supplyMemoSlots]int32
}

// supplyMemoSlots is how many constraints a job's supply memo holds: every
// constraint set the synthesized profiles produce (at most six). A wider
// set has its supply computed on every scan instead.
const supplyMemoSlots = 6

// Claim hands out the next unclaimed task, or nil when all tasks have been
// claimed. Late-binding probes call this when they reach a free slot; a nil
// result means the probe is stale and is discarded.
func (js *JobState) Claim() *trace.Task {
	if int(js.nextClaim) >= len(js.Job.Tasks) {
		return nil
	}
	t := &js.Job.Tasks[js.nextClaim]
	js.nextClaim++
	return t
}

// Unclaimed reports how many tasks have not yet been handed out.
func (js *JobState) Unclaimed() int { return len(js.Job.Tasks) - int(js.nextClaim) }

// Done reports how many tasks have completed.
func (js *JobState) Done() int { return int(js.done) }

// Finished reports whether every task has completed.
func (js *JobState) Finished() bool { return int(js.done) == len(js.Job.Tasks) }

// recordTask accounts one task's start; wait is start - job arrival.
func (js *JobState) recordTask(wait simulation.Time) {
	if wait > js.maxWait {
		js.maxWait = wait
	}
	js.sumWait += wait
}
