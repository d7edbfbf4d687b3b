package experiments

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

// updateGolden rewrites results/digests.golden from freshly computed
// digests instead of diffing against it:
//
//	go test ./internal/experiments -run TestGoldenDigestCorpus -update
var updateGolden = flag.Bool("update", false, "rewrite results/digests.golden from freshly computed run digests")

const goldenPath = "../../results/digests.golden"

// goldenOptions are the corpus's fixed settings. They are deliberately NOT
// derived from DefaultOptions: the golden file must only change when
// simulation behavior changes, never when the defaults are retuned.
func goldenOptions() Options {
	o := DefaultOptions()
	o.Scale = 0.05
	o.Seeds = 3
	o.ClusterSeed = 42
	o.Parallelism = 8
	return o
}

// goldenCorpus computes the run digest of every bundled scheduler on every
// bundled workload profile for each corpus seed, fanned out on the worker
// pool, and renders the canonical golden-file text.
func goldenCorpus(t *testing.T) string {
	t.Helper()
	o := goldenOptions()
	profiles := []string{"yahoo", "cloudera", "google"}
	scheds := []string{SchedPhoenix, SchedEagle, SchedHawk, SchedSparrow, SchedYacc, SchedCentralized}

	var b strings.Builder
	b.WriteString("# Golden run digests: every bundled scheduler x workload profile x 3 seeds\n")
	fmt.Fprintf(&b, "# at scale %v, cluster seed %d. A diff here means simulation behavior changed;\n",
		o.Scale, o.ClusterSeed)
	b.WriteString("# if intended, regenerate with:\n")
	b.WriteString("#   go test ./internal/experiments -run TestGoldenDigestCorpus -update\n")
	for _, profile := range profiles {
		e, err := newEnv(o, profile)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := e.clusterAt(1.0)
		if err != nil {
			t.Fatal(err)
		}
		n := len(scheds) * o.Seeds
		digests := make([]uint64, n)
		err = o.runUnits(n, func(ctx context.Context, i int) error {
			si, rep := i%len(scheds), i/len(scheds)
			tr, err := e.trace(rep)
			if err != nil {
				return err
			}
			res, err := runSpec(ctx, o.unit(cl, tr, scheds[si], rep))
			if err != nil {
				return err
			}
			digests[i] = res.Collector.Digest()
			return nil
		})
		if err != nil {
			t.Fatalf("%s corpus: %v", profile, err)
		}
		for i, d := range digests {
			si, rep := i%len(scheds), i/len(scheds)
			fmt.Fprintf(&b, "%s/%s/seed%d %016x\n", profile, scheds[si], rep, d)
		}
	}
	return b.String()
}

// TestGoldenDigestCorpus recomputes the digest corpus and diffs it against
// results/digests.golden line by line, so an unintended behavior change in
// any scheduler on any profile fails with the exact (profile, scheduler,
// seed) cells that moved. Skipped under -race: the corpus re-runs the same
// simulations the determinism battery already races, and digests do not
// depend on the detector.
func TestGoldenDigestCorpus(t *testing.T) {
	if raceEnabled {
		t.Skip("digest corpus is covered race-free; determinism battery runs under -race")
	}
	got := goldenCorpus(t)
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	wantBytes, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	want := string(wantBytes)
	if got == want {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
	max := len(gotLines)
	if len(wantLines) > max {
		max = len(wantLines)
	}
	diffs := 0
	for i := 0; i < max; i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			diffs++
			t.Errorf("line %d:\n  golden:   %s\n  computed: %s", i+1, w, g)
		}
	}
	t.Errorf("%d corpus line(s) diverged from %s; if the behavior change is intended, regenerate with -update", diffs, goldenPath)
}
