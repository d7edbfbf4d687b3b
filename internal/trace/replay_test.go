package trace

import (
	"strings"
	"testing"
)

// replayJSONL is a two-job phoenix-trace-v1 stream whose second job is
// replaced by job1 verbatim.
func replayJSONL(job1 string) string {
	return `{"format":"phoenix-trace-v1","name":"t","num_nodes":10,"short_cutoff_us":90000000,"num_jobs":2}
{"id":0,"arrival_us":0,"short":true,"tasks":[{"id":0,"job_id":0,"index":0,"duration_us":1000000}]}
` + job1 + "\n"
}

// drainReplay pulls every job from a replay of src and returns how many
// were emitted and the error that ended the stream.
func drainReplay(t *testing.T, src string) (int, error) {
	t.Helper()
	s, err := NewReplaySource(strings.NewReader(src), 1)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := s.NextJob(); !ok {
			return s.Emitted(), s.Err()
		}
	}
}

// TestReplayValidatesLikeRead feeds hostile job records through both the
// streaming ReplaySource and the batch Read: each must be rejected by both,
// with an error naming the offending job (and task, where one is at
// fault), after the valid first job was emitted.
func TestReplayValidatesLikeRead(t *testing.T) {
	cases := []struct {
		name string
		job1 string
		want string
	}{
		{"unknown dimension",
			`{"id":1,"arrival_us":5,"tasks":[{"id":1,"job_id":1,"index":0,"duration_us":1000000,"constraints":[{"dim":99,"op":1,"value":1}]}]}`,
			"job 1 task 0: constraint: invalid dimension 99"},
		{"negative duration",
			`{"id":1,"arrival_us":5,"tasks":[{"id":1,"job_id":1,"index":0,"duration_us":-5000000}]}`,
			"task 0 of job 1 has non-positive duration"},
		{"zero duration",
			`{"id":1,"arrival_us":5,"tasks":[{"id":1,"job_id":1,"index":0,"duration_us":0}]}`,
			"task 0 of job 1 has non-positive duration"},
		{"gang wider than job",
			`{"id":1,"arrival_us":5,"gang_width":999,"tasks":[{"id":1,"job_id":1,"index":0,"duration_us":1000000}]}`,
			"job 1 has gang width 999 with 1 tasks"},
		{"negative priority",
			`{"id":1,"arrival_us":5,"priority":-1,"tasks":[{"id":1,"job_id":1,"index":0,"duration_us":1000000}]}`,
			"job 1 has negative priority -1"},
		{"invalid placement",
			`{"id":1,"arrival_us":5,"placement":7,"tasks":[{"id":1,"job_id":1,"index":0,"duration_us":1000000}]}`,
			"job 1 has invalid placement 7"},
		{"no tasks",
			`{"id":1,"arrival_us":5,"tasks":[]}`,
			"job 1 has no tasks"},
		{"task claims another job",
			`{"id":1,"arrival_us":5,"tasks":[{"id":1,"job_id":0,"index":0,"duration_us":1000000}]}`,
			"task 0 of job 1 claims job 0"},
		{"task index out of place",
			`{"id":1,"arrival_us":5,"tasks":[{"id":1,"job_id":1,"index":3,"duration_us":1000000}]}`,
			"task at position 0 of job 1 has index 3"},
		{"task ID repeats across jobs",
			`{"id":1,"arrival_us":5,"tasks":[{"id":0,"job_id":1,"index":0,"duration_us":1000000}]}`,
			"task IDs not strictly increasing at job 1 task 0"},
		{"duplicate dimension",
			`{"id":1,"arrival_us":5,"tasks":[{"id":1,"job_id":1,"index":0,"duration_us":1000000,"constraints":[{"dim":1,"op":1,"value":1},{"dim":1,"op":1,"value":2}]}]}`,
			"job 1 task 0: constraint: duplicate dimension"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := replayJSONL(tc.job1)
			emitted, err := drainReplay(t, src)
			if err == nil {
				t.Fatalf("replay accepted the job; want an error containing %q", tc.want)
			}
			if emitted != 1 {
				t.Errorf("emitted %d jobs before the error, want 1", emitted)
			}
			if !strings.HasPrefix(err.Error(), "trace: replay: ") || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("replay error %q, want prefix %q and %q", err, "trace: replay: ", tc.want)
			}
			if _, err := Read(strings.NewReader(src)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Read error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestReplayAcceptsValidTrace checks a trace written by Write replays job
// for job, with no error at the end of the stream.
func TestReplayAcceptsValidTrace(t *testing.T) {
	cfg := smallConfig()
	cfg.NumJobs = 60
	tr, err := Generate(cfg, smallCluster(t), 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	emitted, err := drainReplay(t, buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if emitted != len(tr.Jobs) {
		t.Fatalf("emitted %d jobs, want %d", emitted, len(tr.Jobs))
	}
}
