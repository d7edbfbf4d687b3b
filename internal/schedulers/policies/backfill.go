package policies

import (
	"fmt"

	"github.com/phoenix-sched/phoenix/internal/sched"
	"github.com/phoenix-sched/phoenix/internal/simulation"
)

// Backfill is the reservation-backfill policy plug-in: short jobs are
// slotted onto workers a gang is holding reserved, but only when the
// Pollaczek–Khinchin waiting-time estimate proves every task finishes
// before the reservation's deadline — the window in which the slot would
// otherwise sit idle waiting for the gang to assemble. Admission is
// all-or-nothing per job: either every task fits inside some reserved
// slot's remaining budget or the whole job falls through to the inner
// scheduler unchanged. Backfilled tasks are accounted per task in the
// digest-excluded Backfills counter.
//
// Compose backfill outermost — backfill(gang(s)) — so it sees short jobs
// before the gang wrapper's inner scheduler places them; with no live
// reservations it is a single integer comparison per submission.
type Backfill struct {
	base
}

// NewBackfill wraps inner with the reservation-backfill policy.
func NewBackfill(inner sched.Scheduler) *Backfill { return &Backfill{base: newBase(inner)} }

// Name identifies the wrapper and its inner scheduler, e.g.
// "backfill(gang(phoenix))".
func (b *Backfill) Name() string { return fmt.Sprintf("backfill(%s)", b.inner.Name()) }

// SubmitJob backfills short non-gang jobs into live reservations when every
// task provably drains before the deadlines; everything else goes to the
// inner scheduler.
func (b *Backfill) SubmitJob(d *sched.Driver, js *sched.JobState) {
	if js.Short && js.Job.GangWidth <= 1 && d.ReservedCount() > 0 && b.tryBackfill(d, js) {
		return
	}
	b.inner.SubmitJob(d, js)
}

// slot is one reserved worker's remaining admissible budget.
type slot struct {
	w      *sched.Worker
	budget simulation.Time
}

// tryBackfill attempts to place every task of js inside reserved slots and
// reports whether it did. A slot's budget is the reservation deadline minus
// the worker's estimated availability (the P-K wait estimate plus one
// network delay of transit); tasks consume budget greedily, first slot
// with room wins, and a single task that fits nowhere aborts the whole
// placement (all-or-nothing, so no partial job straddles the fallback
// path).
func (b *Backfill) tryBackfill(d *sched.Driver, js *sched.JobState) bool {
	now := d.Now()
	cands := d.CandidateWorkers(js)
	var slots []slot
	for _, w := range d.Workers() {
		rjs, startBy, ok := d.Reservation(w)
		if !ok || rjs == js || w.Failed() || !w.Idle() || w.QueueLen() > 0 {
			continue
		}
		if !cands.Test(w.ID) {
			continue
		}
		wait, saturated := w.WaitEstimate()
		if saturated {
			continue
		}
		avail := now + simulation.FromSeconds(wait) + d.Config().NetworkDelay
		if budget := startBy - avail; budget > 0 {
			slots = append(slots, slot{w: w, budget: budget})
		}
	}
	if len(slots) == 0 {
		return false
	}
	// Dry-run the assignment against budget copies first: admission must be
	// decided before any task is claimed or enqueued.
	need := js.EstDur
	assign := make([]int, 0, len(js.Job.Tasks))
	for range js.Job.Tasks {
		placed := -1
		for i := range slots {
			if slots[i].budget >= need {
				slots[i].budget -= need
				placed = i
				break
			}
		}
		if placed < 0 {
			return false
		}
		assign = append(assign, placed)
	}
	for _, i := range assign {
		t := js.Claim()
		if t == nil {
			break
		}
		d.EnqueueTask(slots[i].w, js, t)
		d.Collector().Backfills++
	}
	return true
}
