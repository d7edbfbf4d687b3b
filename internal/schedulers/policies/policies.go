// Package policies implements composable scheduler policy plug-ins: thin
// wrappers that add one production scheduling behavior — gang
// (all-or-nothing) co-placement, priority preemption, or backfill into gang
// reservations — around any registered scheduler, including each other and
// the sharded meta-scheduler. Each wrapper delegates every optional driver
// hook to its inner scheduler, so "gang(phoenix)" heartbeats, steals, and
// reports CRV exactly as phoenix does; the wrapper only intervenes on the
// jobs its policy covers (gang widths > 1, priority tiers > 0, live
// reservations). A trace with no gang widths and default priorities passes
// through every wrapper untouched, draw for draw, so same-seed digests are
// byte-identical to the bare inner scheduler's.
//
// The registry names "gang", "preempt", and "backfill" wrap phoenix;
// arbitrary compositions are built with Wrap (e.g. "backfill,gang" around
// any base scheduler — the list is applied innermost-first, so that spells
// backfill(gang(base))). Composition order matters only for jobs a policy
// covers: backfill must be outermost to intercept short jobs before the
// gang wrapper's inner scheduler places them.
package policies

import (
	"fmt"

	"github.com/phoenix-sched/phoenix/internal/sched"
)

func init() {
	sched.Register("gang", func() (sched.Scheduler, error) {
		inner, err := sched.NewByName("phoenix")
		if err != nil {
			return nil, err
		}
		return NewGang(inner), nil
	})
	sched.Register("preempt", func() (sched.Scheduler, error) {
		inner, err := sched.NewByName("phoenix")
		if err != nil {
			return nil, err
		}
		return NewPreempt(inner), nil
	})
	sched.Register("backfill", func() (sched.Scheduler, error) {
		inner, err := sched.NewByName("phoenix")
		if err != nil {
			return nil, err
		}
		return NewBackfill(inner), nil
	})
}

// Wrap applies the named policies around inner, innermost first: Wrap(s,
// []string{"gang", "backfill"}) builds backfill(gang(s)). Unknown names
// error. An empty list returns inner unchanged.
func Wrap(inner sched.Scheduler, names []string) (sched.Scheduler, error) {
	s := inner
	for _, n := range names {
		switch n {
		case "gang":
			s = NewGang(s)
		case "preempt":
			s = NewPreempt(s)
		case "backfill":
			s = NewBackfill(s)
		default:
			return nil, fmt.Errorf("policies: unknown policy %q (want gang, preempt, or backfill)", n)
		}
	}
	return s, nil
}

// base wraps one inner scheduler and embeds its resolved hooks
// (sched.HooksOf), so every optional driver hook and telemetry view —
// including a sharded inner scheduler's per-shard CRV — forwards to the
// inner scheduler. Policy types embed it and override only the hooks
// their policy needs.
type base struct {
	inner sched.Scheduler
	sched.Hooks
}

func newBase(inner sched.Scheduler) base {
	return base{inner: inner, Hooks: sched.HooksOf(inner)}
}

// Init initializes the inner scheduler.
func (b *base) Init(d *sched.Driver) error { return b.inner.Init(d) }
