package main

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"github.com/phoenix-sched/phoenix/internal/experiments"
	"github.com/phoenix-sched/phoenix/internal/simulation"
)

// specOf resolves a command line into its Spec through the CLI's own flag
// parsing, so these tests cover the flag mapping and not just Build.
func specOf(t *testing.T, args ...string) experiments.Spec {
	t.Helper()
	o, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := o.invocation()
	if err != nil {
		t.Fatal(err)
	}
	return inv.spec
}

func build(t *testing.T, spec experiments.Spec) *experiments.Assembly {
	t.Helper()
	a, err := experiments.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func batchDigest(t *testing.T, a *experiments.Assembly) uint64 {
	t.Helper()
	res, err := a.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res.Collector.Digest()
}

func serviceDigest(t *testing.T, a *experiments.Assembly, horizon simulation.Time) uint64 {
	t.Helper()
	res, err := a.RunService(context.Background(), horizon)
	if err != nil {
		t.Fatal(err)
	}
	return res.Collector.ServiceDigest()
}

// TestInvisibility checks the digest-invisibility contracts: each layer
// below, attached at its neutral setting, must leave the run digest of the
// plain reference run unchanged. Every case also checks that its layer is
// really in the assembly, so none compares the plain run with itself.
func TestInvisibility(t *testing.T) {
	ref := []string{"-scheduler", "phoenix", "-profile", "google", "-scale", "0.05", "-seed", "7"}
	out := t.TempDir()
	plain := batchDigest(t, build(t, specOf(t, ref...)))

	cases := []struct {
		name  string
		flags []string
		edit  func(*experiments.Spec)
		// attached reports whether the layer under test is in a.
		attached func(a *experiments.Assembly) bool
	}{
		{
			name:     "shards=1",
			flags:    []string{"-shards", "1"},
			attached: func(a *experiments.Assembly) bool { return a.Spec.Shards == 0 },
		},
		{
			// The CLI maps -shards 1 to the unwrapped scheduler; the
			// single-shard wrapper itself is only reachable as a Spec.
			name:     "sharded-x1",
			edit:     func(s *experiments.Spec) { s.Shards = 1 },
			attached: func(a *experiments.Assembly) bool { return a.Scheduler.Name() == "sharded(phoenix x1)" },
		},
		{
			name:  "policies",
			flags: []string{"-policies", "gang,preempt,backfill"},
			attached: func(a *experiments.Assembly) bool {
				return a.Scheduler.Name() == "backfill(preempt(gang(phoenix)))"
			},
		},
		{
			name:     "admission-off",
			flags:    []string{"-admission", "off"},
			attached: func(a *experiments.Assembly) bool { return a.Spec.Admission == "off" && a.Admission == nil },
		},
		{
			name: "validate+telemetry",
			flags: []string{"-validate",
				"-timeseries", filepath.Join(out, "series.csv"), "-report", filepath.Join(out, "report.md")},
			attached: func(a *experiments.Assembly) bool { return a.Checker != nil && a.Recorder != nil },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := specOf(t, append(append([]string(nil), ref...), tc.flags...)...)
			if tc.edit != nil {
				tc.edit(&spec)
			}
			a := build(t, spec)
			if !tc.attached(a) {
				t.Fatalf("assembly %s lacks the layer under test", a.Scheduler.Name())
			}
			if got := batchDigest(t, a); got != plain {
				t.Errorf("digest %016x, want the plain run's %016x", got, plain)
			}
		})
	}

	// A policy wrapper must forward every scheduler view, the sharded
	// scheduler's per-shard CRV included: at zero gang fraction, gang
	// around four shards must write the bare four-shard run's telemetry
	// CSV byte for byte, crv_max_shard<k> columns and all.
	t.Run("policies-shard-view", func(t *testing.T) {
		sharded := append(append([]string(nil), ref...), "-shards", "4")
		csvOf := func(flags ...string) string {
			a := build(t, specOf(t, append(append([]string(nil), sharded...), flags...)...))
			batchDigest(t, a)
			return a.Recorder.CSV()
		}
		want := csvOf("-timeseries", filepath.Join(out, "sharded.csv"))
		got := csvOf("-policies", "gang", "-timeseries", filepath.Join(out, "gang-sharded.csv"))
		if !strings.Contains(want, "crv_max_shard3") {
			t.Fatal("the bare four-shard CSV has no per-shard CRV columns")
		}
		if got != want {
			header, _, _ := strings.Cut(got, "\n")
			t.Errorf("gang(sharded x4) CSV differs from the bare run's; its header:\n%s", header)
		}
	})

	t.Run("service", func(t *testing.T) {
		svc := append(append([]string(nil), ref...), "-service", "-duration", "60", "-window", "10")
		bare := specOf(t, svc...)
		bare.Windows = nil
		instrumented := specOf(t, append(svc,
			"-timeseries", filepath.Join(out, "svc.csv"), "-report", filepath.Join(out, "svc.md"))...)
		a, b := build(t, instrumented), build(t, bare)
		if a.Windows == nil || a.Recorder == nil || b.Windows != nil || b.Recorder != nil {
			t.Fatal("service pair does not differ in windows and telemetry")
		}
		horizon := simulation.FromSeconds(60)
		if got, want := serviceDigest(t, a, horizon), serviceDigest(t, b, horizon); got != want {
			t.Errorf("instrumented service digest %016x, want the bare run's %016x", got, want)
		}
	})
}
