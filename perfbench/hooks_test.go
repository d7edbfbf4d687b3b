package main

import (
	"testing"

	"github.com/phoenix-sched/phoenix/internal/experiments"
	"github.com/phoenix-sched/phoenix/internal/sched"
)

// TestTracerKeepsHookSet checks, for every registered scheduler, that the
// timing decorator implements exactly the optional hooks of the scheduler
// it wraps: sched.NewDriver resolves hooks by type assertion, and an extra
// one changes the run.
func TestTracerKeepsHookSet(t *testing.T) {
	opts := experiments.DefaultOptions()
	for _, name := range sched.Registered() {
		inner, err := opts.NewScheduler(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dec, _, err := newTracer(inner)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := hookSet(dec), hookSet(inner); got != want {
			t.Errorf("%s: decorator hooks %05b, scheduler hooks %05b", name, got, want)
		}
		if dec.Name() != inner.Name() {
			t.Errorf("%s: decorator named %q", name, dec.Name())
		}
	}
}

// TestTracedDigestMatches runs every registered scheduler on a small batch
// workload with and without the decorator and requires the same digest,
// and that the decorator saw the calls it claims.
func TestTracedDigestMatches(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every scheduler twice")
	}
	for _, name := range sched.Registered() {
		w := workload{name: "test-" + name, scheduler: name, scale: 0.02}
		digests := make(map[variant]uint64)
		for _, v := range []variant{plain, traced} {
			in, err := setup(w, defaultSeed, v, make(map[string][]float64))
			if err != nil {
				t.Fatalf("%s %s: %v", name, v, err)
			}
			m := make(map[string]float64)
			if digests[v], err = in.run(m); err != nil {
				t.Fatalf("%s %s: %v", name, v, err)
			}
			if v == traced {
				jobs := m["sched.submit_long.calls"] + m["sched.submit_short.calls"]
				if int(jobs) != len(in.d.Trace().Jobs) {
					t.Errorf("%s: %v submit spans for %d jobs", name, jobs, len(in.d.Trace().Jobs))
				}
				if self := m["sched.driver_self_s"]; self <= 0 || self > m["run_s"] {
					t.Errorf("%s: driver self time %v outside (0, %v]", name, self, m["run_s"])
				}
			}
		}
		if digests[plain] != digests[traced] {
			t.Errorf("%s: traced digest %016x, untraced %016x", name, digests[traced], digests[plain])
		}
	}
}
