// Package trace models datacenter workloads: jobs of tasks with arrival
// times, durations, and placement constraints. It provides synthetic
// generators calibrated to the published statistics of the three traces the
// paper evaluates on (Google cluster-C, Yahoo, Cloudera), a constraint
// synthesizer reproducing the Sharma et al. model the paper uses to embed
// constraints into the Yahoo and Cloudera traces, JSONL serialization, and
// summary statistics.
//
// The real traces are not redistributable (Google's constraint values are
// hashed; Yahoo/Cloudera never shipped constraints at all — the paper
// synthesizes them too), so the generators here target the scheduler-visible
// statistics the paper reports: short-job share, Pareto-bound task
// durations, bursty arrivals with configurable peak-to-median ratio, the
// Table II constraint-type shares, and the Fig. 6 per-job constraint-count
// distribution.
package trace

import (
	"fmt"

	"github.com/phoenix-sched/phoenix/internal/constraint"
	"github.com/phoenix-sched/phoenix/internal/simulation"
)

// Task is one unit of work. Tasks run to completion on a single worker
// slot; Duration is the intrinsic service time, known to the scheduler as
// an estimate (the simulators for Hawk, Eagle, and Phoenix all assume known
// runtime estimates).
type Task struct {
	// ID is dense within the trace.
	ID int `json:"id"`
	// JobID is the owning job.
	JobID int `json:"job_id"`
	// Index is the task's position within the job.
	Index int `json:"index"`
	// Duration is the service time in virtual microseconds.
	Duration simulation.Time `json:"duration_us"`
	// Constraints are the task's placement requirements; empty means
	// unconstrained.
	Constraints constraint.Set `json:"constraints,omitempty"`
}

// Placement is a job-level combinatorial constraint (the paper's third
// constraint class, §III-A): an affinity preference over rack identity.
type Placement int

const (
	// PlacementNone means tasks go wherever capacity is.
	PlacementNone Placement = iota
	// PlacementSpread asks for tasks on distinct racks (anti-affinity:
	// "few applications might prefer its tasks to spread out across
	// multiple racks for fault tolerance guarantees").
	PlacementSpread
	// PlacementPack asks for tasks co-located on one rack (affinity:
	// "tasks of a particular application like Hadoop or Spark that prefer
	// to be scheduled close to each other due to data locality").
	PlacementPack
)

// String names the placement policy.
func (p Placement) String() string {
	switch p {
	case PlacementNone:
		return "none"
	case PlacementSpread:
		return "spread"
	case PlacementPack:
		return "pack"
	}
	return "placement(?)"
}

// Valid reports whether p is a defined policy.
func (p Placement) Valid() bool { return p >= PlacementNone && p <= PlacementPack }

// Job is a set of tasks arriving together. A job completes when its last
// task completes; job response time = completion - arrival.
type Job struct {
	// ID is dense within the trace.
	ID int `json:"id"`
	// Arrival is the submission time.
	Arrival simulation.Time `json:"arrival_us"`
	// Short marks latency-critical jobs (ground truth from the generator;
	// schedulers classify with a duration cutoff, as Hawk and Eagle do).
	Short bool `json:"short"`
	// Placement is the job's combinatorial (rack affinity) constraint.
	Placement Placement `json:"placement,omitempty"`
	// GangWidth is the number of workers the job must hold simultaneously
	// before any task may start (gang / co-scheduling semantics, the
	// "multiserver jobs" of Hong & Wang). 0 or 1 means no gang semantics;
	// the gang policy plug-in ignores such jobs entirely, so traces that
	// never set the field behave byte-identically to traces predating it.
	GangWidth int `json:"gang_width,omitempty"`
	// Priority is the job's scheduling tier; higher preempts lower. The
	// default tier 0 is never preempted and never preempts, so traces that
	// never set the field are unaffected by the preempt policy plug-in.
	Priority int `json:"priority,omitempty"`
	// Tasks are the job's tasks.
	Tasks []Task `json:"tasks"`
}

// Gang reports whether the job demands gang (all-or-nothing) placement.
func (j *Job) Gang() bool { return j.GangWidth > 1 }

// Constrained reports whether any task carries constraints.
func (j *Job) Constrained() bool {
	for i := range j.Tasks {
		if !j.Tasks[i].Constraints.Empty() {
			return true
		}
	}
	return false
}

// Constraints returns the constraint set of the job's first task. The
// synthesizer assigns identical constraints to all tasks of a job (as the
// Google trace does for the overwhelming majority of jobs), so this is the
// job-level constraint set.
func (j *Job) Constraints() constraint.Set {
	if len(j.Tasks) == 0 {
		return nil
	}
	return j.Tasks[0].Constraints
}

// TotalWork returns the sum of task durations.
func (j *Job) TotalWork() simulation.Time {
	var w simulation.Time
	for i := range j.Tasks {
		w += j.Tasks[i].Duration
	}
	return w
}

// MeanTaskDuration returns the average task duration, the quantity hybrid
// schedulers threshold on to split long from short jobs.
func (j *Job) MeanTaskDuration() simulation.Time {
	if len(j.Tasks) == 0 {
		return 0
	}
	return j.TotalWork() / simulation.Time(len(j.Tasks))
}

// Trace is a complete workload.
type Trace struct {
	// Name identifies the workload profile ("google", ...).
	Name string `json:"name"`
	// NumNodes is the cluster size the trace was calibrated against.
	NumNodes int `json:"num_nodes"`
	// ShortCutoff is the mean-task-duration threshold separating short
	// from long jobs for scheduler classification.
	ShortCutoff simulation.Time `json:"short_cutoff_us"`
	// Jobs are sorted by arrival time.
	Jobs []Job `json:"jobs"`
}

// Validate checks structural invariants: jobs sorted by arrival, dense job
// IDs, task IDs strictly increasing across the trace, and every job valid
// on its own (Job.Validate).
func (t *Trace) Validate() error {
	var prev simulation.Time
	taskID := -1
	for i := range t.Jobs {
		j := &t.Jobs[i]
		if j.ID != i {
			return fmt.Errorf("trace: job at position %d has ID %d", i, j.ID)
		}
		if j.Arrival < prev {
			return fmt.Errorf("trace: job %d arrives at %v before predecessor at %v", j.ID, j.Arrival, prev)
		}
		prev = j.Arrival
		if err := j.Validate(taskID); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		taskID = j.Tasks[len(j.Tasks)-1].ID
	}
	return nil
}

// Validate checks the invariants of one job on its own: a known placement,
// at least one task, a gang width within the task count, a non-negative
// priority, and tasks that point back at the job, carry dense indices,
// positive durations and well-formed constraint sets, with IDs strictly
// increasing from above prevTaskID (the last task ID of the jobs before
// it; -1 for the first). Trace.Validate and the streaming ReplaySource
// both call it, so a batch trace and a replayed one are held to the same
// rules.
func (j *Job) Validate(prevTaskID int) error {
	if !j.Placement.Valid() {
		return fmt.Errorf("job %d has invalid placement %d", j.ID, int(j.Placement))
	}
	if len(j.Tasks) == 0 {
		return fmt.Errorf("job %d has no tasks", j.ID)
	}
	if j.GangWidth < 0 || j.GangWidth > len(j.Tasks) {
		return fmt.Errorf("job %d has gang width %d with %d tasks", j.ID, j.GangWidth, len(j.Tasks))
	}
	if j.Priority < 0 {
		return fmt.Errorf("job %d has negative priority %d", j.ID, j.Priority)
	}
	for k := range j.Tasks {
		task := &j.Tasks[k]
		if task.JobID != j.ID {
			return fmt.Errorf("task %d of job %d claims job %d", k, j.ID, task.JobID)
		}
		if task.Index != k {
			return fmt.Errorf("task at position %d of job %d has index %d", k, j.ID, task.Index)
		}
		if task.Duration <= 0 {
			return fmt.Errorf("task %d of job %d has non-positive duration", k, j.ID)
		}
		if task.ID <= prevTaskID {
			return fmt.Errorf("task IDs not strictly increasing at job %d task %d", j.ID, k)
		}
		prevTaskID = task.ID
		if err := task.Constraints.Validate(); err != nil {
			return fmt.Errorf("job %d task %d: %w", j.ID, k, err)
		}
	}
	return nil
}

// NumTasks reports the total task count.
func (t *Trace) NumTasks() int {
	n := 0
	for i := range t.Jobs {
		n += len(t.Jobs[i].Tasks)
	}
	return n
}

// Makespan reports the last arrival time (the span over which load is
// offered).
func (t *Trace) Makespan() simulation.Time {
	if len(t.Jobs) == 0 {
		return 0
	}
	return t.Jobs[len(t.Jobs)-1].Arrival
}

// TotalWork reports the sum of all task durations.
func (t *Trace) TotalWork() simulation.Time {
	var w simulation.Time
	for i := range t.Jobs {
		w += t.Jobs[i].TotalWork()
	}
	return w
}

// StripConstraints returns a deep copy of the trace with every task's
// constraints removed — the "Baseline"/"unconstrained" comparator in the
// paper's Figs. 2 and 4, which measures what the same workload would cost
// if no task demanded specific hardware.
func (t *Trace) StripConstraints() *Trace {
	out := &Trace{
		Name:        t.Name + "-unconstrained",
		NumNodes:    t.NumNodes,
		ShortCutoff: t.ShortCutoff,
		Jobs:        make([]Job, len(t.Jobs)),
	}
	for i := range t.Jobs {
		j := t.Jobs[i]
		j.Tasks = append([]Task(nil), j.Tasks...)
		for k := range j.Tasks {
			j.Tasks[k].Constraints = nil
		}
		out.Jobs[i] = j
	}
	return out
}

// OfferedLoad reports total work / (numNodes x makespan): the average
// per-slot utilization the trace demands of a cluster with numNodes
// single-slot workers.
func (t *Trace) OfferedLoad(numNodes int) float64 {
	ms := t.Makespan()
	if ms == 0 || numNodes == 0 {
		return 0
	}
	return float64(t.TotalWork()) / (float64(ms) * float64(numNodes))
}
