package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/phoenix-sched/phoenix/internal/cluster"
	"github.com/phoenix-sched/phoenix/internal/simulation"
	"github.com/phoenix-sched/phoenix/internal/trace"
)

func TestRunSynthetic(t *testing.T) {
	for _, s := range []string{"phoenix", "eagle-c", "centralized"} {
		if err := run([]string{"-scheduler", s, "-profile", "google", "-scale", "0.01"}); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
}

func TestRunValidateAndDigest(t *testing.T) {
	for _, s := range []string{"phoenix", "sparrow-c"} {
		if err := run([]string{"-scheduler", s, "-scale", "0.01", "-validate", "-digest"}); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
}

func TestRunWithFailures(t *testing.T) {
	if err := run([]string{"-scale", "0.01", "-failure-rate", "10"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunReplaysTraceFile(t *testing.T) {
	cl, err := cluster.GoogleProfile().GenerateCluster(100, simulation.NewRNG(1).Stream("m"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.GoogleConfig(1.0)
	cfg.NumNodes = 100
	cfg.NumJobs = 50
	tr, err := trace.Generate(cfg, cl, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.jsonl")
	if err := trace.WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-trace", path, "-scheduler", "eagle-c"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWritesTelemetryFiles(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "series.csv")
	reportPath := filepath.Join(dir, "report.md")
	err := run([]string{"-scale", "0.01", "-seed", "3",
		"-timeseries", csvPath, "-report", reportPath})
	if err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if len(lines) < 2 {
		t.Fatalf("time series has %d lines, want header plus samples", len(lines))
	}
	if !strings.HasPrefix(lines[0], "time_s,crv_max,") {
		t.Errorf("unexpected CSV header: %q", lines[0])
	}
	report, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, section := range []string{"# Run report", "## Headline percentiles", "## Scheduler counters"} {
		if !strings.Contains(string(report), section) {
			t.Errorf("report missing section %q", section)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-scheduler", "mesos", "-scale", "0.01"}); err == nil {
		t.Error("unknown scheduler accepted")
	}
	if err := run([]string{"-profile", "azure"}); err == nil {
		t.Error("unknown profile accepted")
	}
	if err := run([]string{"-trace", "/nonexistent.jsonl"}); err == nil {
		t.Error("missing trace accepted")
	}
	if err := run([]string{"-notaflag"}); err == nil {
		t.Error("bad flag accepted")
	}
	for _, n := range []string{"0", "-3"} {
		if err := run([]string{"-shards", n, "-scale", "0.01"}); err == nil || !strings.Contains(err.Error(), "-shards") {
			t.Errorf("-shards %s: error %v, want one naming -shards", n, err)
		}
	}
}

// TestRunReplayRejectsHostileJobs streams two-job traces whose second job
// is malformed through -service -replay: each run must fail with an error
// naming the job (no panic, no digest), like the batch -trace path.
func TestRunReplayRejectsHostileJobs(t *testing.T) {
	const head = `{"format":"phoenix-trace-v1","name":"t","num_nodes":20,"short_cutoff_us":90000000,"num_jobs":2}
{"id":0,"arrival_us":0,"short":true,"tasks":[{"id":0,"job_id":0,"index":0,"duration_us":1000000}]}
`
	cases := map[string]struct{ job1, want string }{
		"unknown dimension": {
			`{"id":1,"arrival_us":5,"tasks":[{"id":1,"job_id":1,"index":0,"duration_us":1000000,"constraints":[{"dim":99,"op":1,"value":1}]}]}`,
			"job 1 task 0: constraint: invalid dimension 99"},
		"negative duration": {
			`{"id":1,"arrival_us":5,"tasks":[{"id":1,"job_id":1,"index":0,"duration_us":-5000000}]}`,
			"task 0 of job 1 has non-positive duration"},
		"gang wider than job": {
			`{"id":1,"arrival_us":5,"gang_width":999,"tasks":[{"id":1,"job_id":1,"index":0,"duration_us":1000000}]}`,
			"job 1 has gang width 999 with 1 tasks"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "t.jsonl")
			if err := os.WriteFile(path, []byte(head+tc.job1+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			err := run([]string{"-service", "-replay", path, "-validate", "-digest"})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run error %v, want one containing %q", err, tc.want)
			}
		})
	}
}
