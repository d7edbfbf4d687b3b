package sched

import "github.com/phoenix-sched/phoenix/internal/simulation"

// Gang reservations. A reservation parks a worker slot for a pending gang
// job (all-or-nothing co-placement): until it is released, the dispatch
// loop starts only entries of the reserving job itself — or entries that
// provably finish before the reservation's deadline, which is exactly the
// admissibility window the backfill policy plug-in fills. The state is
// driver-owned and threaded through the struct-of-arrays load view
// (workerSoA.resStartBy for the dispatch-gate check, plus a backlog hold so
// placement scans steer new work away from reserved slots); the gang policy
// plug-in owns the protocol — which workers to reserve, when to commit, and
// when to abandon on timeout.
//
// All reservation state is lazily allocated: a run that never calls
// ReserveWorker pays one nil check per dispatch iteration and is otherwise
// byte-identical to a run built before reservations existed.

// reservation is the driver's record of one reserved worker slot.
type reservation struct {
	// js is the gang job holding the slot.
	js *JobState
	// hold is the backlog parked on the worker at reserve time (the
	// deadline minus the reserve-time clock), removed at release so the
	// accounting balances exactly.
	hold simulation.Time
}

// ensureReservations allocates the lazy reservation arrays.
func (d *Driver) ensureReservations() {
	if d.soa.resStartBy != nil {
		return
	}
	d.soa.resStartBy = make([]simulation.Time, len(d.workers))
	for i := range d.soa.resStartBy {
		d.soa.resStartBy[i] = noReservation
	}
	d.reservations = make([]reservation, len(d.workers))
}

// ReserveWorker parks w for gang job js until startBy (the caller's
// estimate of when the gang will either commit or abandon — its timeout
// deadline). While reserved, w dispatches only js's own entries or entries
// estimated to finish by startBy; the expected hold is parked on w's
// backlog so placement scans avoid the slot. It reports false, reserving
// nothing, when w is failed or already reserved, or when startBy is not in
// the future.
func (d *Driver) ReserveWorker(w *Worker, js *JobState, startBy simulation.Time) bool {
	now := d.engine.Now()
	if w.failed || startBy <= now {
		return false
	}
	d.ensureReservations()
	if d.soa.resStartBy[w.ID] >= 0 {
		return false
	}
	d.soa.resStartBy[w.ID] = startBy
	hold := startBy - now
	d.reservations[w.ID] = reservation{js: js, hold: hold}
	d.soa.backlog[w.ID] += hold
	d.reservedCount++
	return true
}

// ReleaseReservation lifts w's gang reservation, removes the parked
// backlog hold, and resumes any dispatch the reservation gate was holding
// back. It reports false when w holds no reservation.
func (d *Driver) ReleaseReservation(w *Worker) bool {
	if d.soa.resStartBy == nil || d.soa.resStartBy[w.ID] < 0 {
		return false
	}
	d.clearReservation(w)
	if !w.failed && w.running == nil {
		d.tryDispatch(w)
		if w.running == nil && len(w.queue) == 0 && d.hooks.Idle != nil {
			d.hooks.Idle.OnWorkerIdle(d, w)
		}
	}
	return true
}

// clearReservation drops w's reservation record without re-kicking
// dispatch (the slot is about to be occupied, or the caller re-kicks).
func (d *Driver) clearReservation(w *Worker) {
	d.soa.backlog[w.ID] -= d.reservations[w.ID].hold
	d.soa.resStartBy[w.ID] = noReservation
	d.reservations[w.ID] = reservation{}
	d.reservedCount--
}

// Reservation reports the job holding w's slot and the reservation
// deadline; ok is false when w is unreserved.
func (d *Driver) Reservation(w *Worker) (js *JobState, startBy simulation.Time, ok bool) {
	if d.soa.resStartBy == nil || d.soa.resStartBy[w.ID] < 0 {
		return nil, 0, false
	}
	return d.reservations[w.ID].js, d.soa.resStartBy[w.ID], true
}

// Reserved reports whether w's slot is held by a gang reservation.
func (d *Driver) Reserved(w *Worker) bool {
	return d.soa.resStartBy != nil && d.soa.resStartBy[w.ID] >= 0
}

// ReservedCount reports how many worker slots are currently reserved.
func (d *Driver) ReservedCount() int { return d.reservedCount }

// reservationBlocks reports whether w's reservation gate holds entry e
// back at now: the slot is reserved for another job and e is not estimated
// to finish (including a probe's task-fetch delay) by the deadline.
func (d *Driver) reservationBlocks(w *Worker, e *Entry, now simulation.Time) bool {
	rs := d.soa.resStartBy[w.ID]
	if rs < 0 || d.reservations[w.ID].js == e.Job {
		return false
	}
	return now+e.EstDur()+d.cfg.NetworkDelay > rs
}

// reservationFallback returns the first queue index on w whose entry passes
// the reservation gate at now, or -1 when every entry is blocked. It runs
// only when the queue policy's selected entry was blocked: the reserving
// job's own entry must still dispatch (nothing else ever re-kicks it), and
// admissible short work ahead of the deadline should not idle behind a
// blocked pick.
func (d *Driver) reservationFallback(w *Worker, now simulation.Time) int {
	for i, e := range w.queue {
		if !d.reservationBlocks(w, e, now) {
			return i
		}
	}
	return -1
}

// removeAtReserved removes and returns w's queue entry at index i for a
// fallback dispatch, charging bypasses only to the earlier entries the
// reservation gate would admit. A gate-blocked entry is not eligible for
// service, so nobody overtook it in the starvation sense — charging it
// would walk it past the bypass threshold while it is unservable, which the
// slack invariant rightly rejects.
func (d *Driver) removeAtReserved(w *Worker, i int, now simulation.Time) *Entry {
	e := w.queue[i]
	for j := 0; j < i; j++ {
		if !d.reservationBlocks(w, w.queue[j], now) {
			w.queue[j].Bypassed++
		}
	}
	w.deleteAt(i)
	w.soa.backlog[w.ID] -= e.EstDur()
	return e
}
