package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	out, err := parseBench(strings.NewReader(`
goos: linux
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEngineQueue/calendar/1000-4  14727225  201.9 ns/op  32 B/op  1 allocs/op
BenchmarkEngineQueue/heap/1000-4      9070444   274.8 ns/op  32 B/op  1 allocs/op
BenchmarkScaleOne                     3         1714899189 ns/op  191373544 B/op  2122707 allocs/op
PASS
`))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkEngineQueue/calendar/1000": 201.9,
		"BenchmarkEngineQueue/heap/1000":     274.8,
		"BenchmarkScaleOne":                  1714899189,
	}
	if len(out) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(out), len(want), out)
	}
	for name, ns := range want {
		if out[name] != ns {
			t.Errorf("%s = %v, want %v", name, out[name], ns)
		}
	}
}

func TestParseBenchKeepsSubBenchDashes(t *testing.T) {
	// Only a trailing numeric -N is a GOMAXPROCS suffix; a dash inside a
	// sub-benchmark name must survive.
	out, err := parseBench(strings.NewReader(
		"BenchmarkX/eagle-c-8  100  50.0 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out["BenchmarkX/eagle-c"]; !ok {
		t.Fatalf("want BenchmarkX/eagle-c, got %v", out)
	}
}

func TestLoadBaselinesBothShapes(t *testing.T) {
	dir := t.TempDir()
	object := filepath.Join(dir, "object.json")
	array := filepath.Join(dir, "array.json")
	if err := os.WriteFile(object, []byte(`{"benchmark":"BenchmarkA","history":[{"date":"2026-01-01","ns_per_op":10}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(array, []byte(`[{"benchmark":"BenchmarkB","history":[{"ns_per_op":20},{"ns_per_op":30}]}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := loadBaselines(object)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Benchmark != "BenchmarkA" || recs[0].History[0].NsPerOp != 10 {
		t.Fatalf("object shape parsed wrong: %+v", recs)
	}
	recs, err = loadBaselines(array)
	if err != nil {
		t.Fatal(err)
	}
	// The last history entry is the gating baseline.
	if len(recs) != 1 || recs[0].History[len(recs[0].History)-1].NsPerOp != 30 {
		t.Fatalf("array shape parsed wrong: %+v", recs)
	}
}

func TestParseUnitAllocs(t *testing.T) {
	out, err := parseUnit(strings.NewReader(
		"BenchmarkA/memo-2  100  50.0 ns/op  0 B/op  0 allocs/op\n"+
			"BenchmarkA/reference-2  100  150.0 ns/op  64 B/op  3 allocs/op\n"+
			"BenchmarkB-2  100  9.0 ns/op\n"), "allocs/op")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out["BenchmarkA/memo"] != 0 || out["BenchmarkA/reference"] != 3 {
		t.Fatalf("allocs/op parsed wrong: %v", out)
	}
	if _, ok := out["BenchmarkB"]; ok {
		t.Fatal("a line without allocs/op must not report allocs")
	}
}

func TestLoadBaselinesInRunFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ratio.json")
	if err := os.WriteFile(path, []byte(`[
		{"benchmark":"BenchmarkA/memo","ratio_to":"BenchmarkA/reference","max_ratio":0.5,"max_allocs":0,"history":[{"ns_per_op":1}]},
		{"benchmark":"BenchmarkA/reference","history":[{"ns_per_op":2}]}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := loadBaselines(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].RatioTo != "BenchmarkA/reference" || recs[0].MaxRatio != 0.5 ||
		recs[0].MaxAllocs == nil || *recs[0].MaxAllocs != 0 {
		t.Fatalf("in-run fields parsed wrong: %+v", recs[0])
	}
	if recs[1].RatioTo != "" || recs[1].MaxAllocs != nil {
		t.Fatalf("absent in-run fields must stay unset: %+v", recs[1])
	}
}

func TestInRunGates(t *testing.T) {
	zero, two := 0.0, 2.0
	ns := map[string]float64{"memo": 40, "ref": 100, "slow": 80}
	allocs := map[string]float64{"memo": 0, "ref": 3, "slow": 3}
	cases := []struct {
		name   string
		rec    record
		failed int
	}{
		{"ratio within bound", record{Benchmark: "memo", RatioTo: "ref", MaxRatio: 0.5}, 0},
		{"ratio over bound", record{Benchmark: "slow", RatioTo: "ref", MaxRatio: 0.5}, 1},
		{"ratio reference missing", record{Benchmark: "memo", RatioTo: "gone", MaxRatio: 0.5}, 1},
		{"allocs within bound", record{Benchmark: "memo", MaxAllocs: &zero}, 0},
		{"allocs over bound", record{Benchmark: "ref", MaxAllocs: &two}, 1},
		{"allocs missing", record{Benchmark: "nobenchmem", MaxAllocs: &zero}, 1},
		{"both over", record{Benchmark: "slow", RatioTo: "ref", MaxRatio: 0.5, MaxAllocs: &zero}, 2},
		{"no in-run gate", record{Benchmark: "slow"}, 0},
	}
	for _, tc := range cases {
		lines, failed := inRunGates(tc.rec, ns, allocs)
		if failed != tc.failed {
			t.Errorf("%s: %d failures, want %d (%v)", tc.name, failed, tc.failed, lines)
		}
		for _, l := range lines {
			if strings.Contains(l, "FAIL") || strings.Contains(l, "MISSING") {
				failed--
			}
		}
		if failed != 0 {
			t.Errorf("%s: failure count and FAIL/MISSING lines disagree: %v", tc.name, lines)
		}
	}
}

func TestBaselineVerdict(t *testing.T) {
	zero := 0.0
	cases := []struct {
		name  string
		rec   record
		delta float64
		fail  bool
	}{
		{"within threshold", record{}, 0.10, false},
		{"past threshold", record{}, 0.20, true},
		{"past threshold, ratio-gated", record{RatioTo: "ref", MaxRatio: 0.5}, 0.20, false},
		{"past threshold, allocs-gated", record{MaxAllocs: &zero}, 0.20, false},
	}
	for _, tc := range cases {
		verdict, fail := baselineVerdict(tc.rec, tc.delta, 0.15)
		if fail != tc.fail || strings.Contains(verdict, "FAIL") != tc.fail {
			t.Errorf("%s: verdict %q, fail %v; want fail %v", tc.name, verdict, fail, tc.fail)
		}
	}
}
