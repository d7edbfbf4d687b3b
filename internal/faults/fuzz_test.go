package faults_test

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/phoenix-sched/phoenix/internal/experiments"
	"github.com/phoenix-sched/phoenix/internal/faults"
	"github.com/phoenix-sched/phoenix/internal/sched"
	"github.com/phoenix-sched/phoenix/internal/strictjson"
)

// anchoredErr is the shape of every decode error ParseScenario returns.
var anchoredErr = regexp.MustCompile(`^scenario: line \d+, column \d+: `)

// FuzzParseScenario feeds arbitrary documents to the scenario parser. Every
// input must either fail with a line/column-anchored decode error or with
// the validation error of the scenario it decodes to, or parse into a
// scenario that attaches to a small driver built with experiments.Build
// (rejected there only for a scope matching no machine) and then runs to
// completion with the invariant checker clean. Nothing may panic.
func FuzzParseScenario(f *testing.F) {
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(files) == 0 {
		f.Fatalf("no bundled scenarios found (%v)", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, seed := range []string{
		`{"name": "mixed", "phases": [
			{"kind": "outage", "start_s": 120, "duration_s": 120, "dim": "platform", "value": 5},
			{"kind": "slowdown", "start_s": 300, "duration_s": 60, "factor": 3, "fraction": 0.25},
			{"kind": "probe-loss", "start_s": 420, "duration_s": 60, "fraction": 0.2}]}`,
		"{\n  \"name\": \"x\",\n  \"phases\": [\n    {\"kind\": }\n  ]\n}",
		"{\n  \"name\": \"x\",\n  \"phases\": [\n    {\"kind\": \"outage\", \"start\": 1}\n  ]\n}",
		"{\n  \"name\": \"x\",\n  \"phases\": [\n    {\"kind\": \"outage\", \"start_s\": \"soon\"}\n  ]\n}",
		`{"name": "x", "phases": []}` + "\ngarbage",
		`{"name": "", "phases": []}`,
		`{"name": "t", "phases": [{"kind": "meteor", "start_s": 1, "duration_s": 1}]}`,
		`{"name": "t", "phases": [{"kind": "outage", "start_s": 1, "duration_s": 1, "dim": "warp-core"}]}`,
		`{"name": "t", "phases": [{"kind": "outage", "start_s": 1, "duration_s": 1, "dim": "isa", "value": 99}]}`,
		`{"name": "t", "phases": [{"kind": "probe-loss", "start_s": 0, "duration_s": 10, "fraction": 0.5},
			{"kind": "probe-loss", "start_s": 5, "duration_s": 10, "fraction": 0.5}]}`,
	} {
		f.Add([]byte(seed))
	}
	e := newEnv(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := faults.ParseScenario(data)
		if err != nil {
			if anchoredErr.MatchString(err.Error()) {
				return
			}
			// Not a decode error: it must be the decoded scenario's own
			// validation error.
			var raw faults.Scenario
			if derr := strictjson.Decode(data, &raw, "scenario", "scenario"); derr != nil {
				t.Fatalf("unanchored error %q for undecodable input (%v)", err, derr)
			}
			if verr := raw.Validate(); verr == nil || verr.Error() != err.Error() {
				t.Fatalf("error %q is neither anchored nor the validation error (%v)", err, verr)
			}
			return
		}
		a, err := experiments.Build(experiments.Spec{
			Config:    sched.DefaultConfig(),
			Cluster:   e.cl,
			Seed:      7,
			Trace:     e.tr,
			Scheduler: "sparrow-c",
			Faults:    sc,
			Validate:  true,
		})
		if err != nil {
			if strings.Contains(err.Error(), "matches no machine") {
				return
			}
			t.Fatalf("parsed scenario rejected by Build: %v", err)
		}
		if got := len(a.Campaign.Timeline()); got != len(sc.Phases) {
			t.Fatalf("campaign armed %d phases, scenario has %d", got, len(sc.Phases))
		}
		if _, err := a.Run(context.Background()); err != nil {
			t.Fatalf("run under %s: %v", sc.Name, err)
		}
	})
}
