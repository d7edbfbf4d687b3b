// Command benchgate compares fresh `go test -bench` output against the
// committed benchmark baselines in results/BENCH_*.json and fails on
// regression.
//
// Usage:
//
//	benchgate [-threshold 0.15] [-input bench.txt] baseline.json...
//
// Each baseline file holds either a single benchmark record or an array of
// them (see results/BENCH_engine.json); the last history entry of each
// record is the baseline. The fresh output — read from -input or stdin —
// is the standard benchmark text format:
//
//	BenchmarkEngineQueue/calendar/1000-4  14727225  201.9 ns/op  32 B/op  1 allocs/op
//
// The trailing -N GOMAXPROCS suffix is stripped before matching names.
// For every baseline record the gate prints a benchstat-style delta line
// and fails when the fresh ns/op exceeds baseline*(1+threshold), or when a
// baselined benchmark is missing from the fresh output entirely (a rename
// must update the baseline, not silently escape the gate).
//
// A record may also carry in-run gates, which compare figures of the same
// input instead of a baseline from another host:
//
//   - ratio_to/max_ratio: fail when the record's fresh ns/op divided by the
//     fresh ns/op of the ratio_to benchmark exceeds max_ratio;
//   - max_allocs: fail when the record's fresh allocs/op exceeds it (the
//     input must come from a -benchmem run).
//
// A record that carries an in-run gate is judged by its in-run gates only:
// its delta to the baseline is printed but does not fail. Such records'
// baselines are medians of several runs, and a single run's ns/op scatters
// past the threshold of them even on the host that recorded them.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// record mirrors one benchmark entry of a results/BENCH_*.json file.
type record struct {
	Benchmark string  `json:"benchmark"`
	Package   string  `json:"package"`
	History   []entry `json:"history"`
	// RatioTo names the in-run reference benchmark; MaxRatio bounds this
	// record's ns/op over the reference's.
	RatioTo  string  `json:"ratio_to"`
	MaxRatio float64 `json:"max_ratio"`
	// MaxAllocs bounds allocs/op; nil means no bound.
	MaxAllocs *float64 `json:"max_allocs"`
}

// entry is one measurement in a record's history; the last entry is the
// gating baseline.
type entry struct {
	Date    string  `json:"date"`
	NsPerOp float64 `json:"ns_per_op"`
}

// loadBaselines reads one BENCH_*.json file, accepting both the
// single-record and the array shape.
func loadBaselines(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var many []record
	if err := json.Unmarshal(data, &many); err == nil {
		return many, nil
	}
	var one record
	if err := json.Unmarshal(data, &one); err != nil {
		return nil, fmt.Errorf("%s: neither a benchmark record nor an array of them: %w", path, err)
	}
	return []record{one}, nil
}

// parseBench extracts benchmark-name -> ns/op from `go test -bench` text
// output, stripping the -N GOMAXPROCS suffix from names. Duplicate names
// (e.g. -count > 1) keep the last measurement.
func parseBench(r io.Reader) (map[string]float64, error) { return parseUnit(r, "ns/op") }

// parseUnit is parseBench for any reported unit, e.g. "allocs/op".
func parseUnit(r io.Reader, unit string) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// fields: name-N iterations value "ns/op" [more pairs...]
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] != unit {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad %s value %q for %s", unit, fields[i], name)
			}
			out[name] = v
		}
	}
	return out, sc.Err()
}

// inRunGates applies rec's ratio_to/max_ratio and max_allocs gates to the
// fresh ns/op and allocs/op figures of one input. It returns one report
// line per gate and how many of them failed; a gated figure missing from
// the input fails its gate.
func inRunGates(rec record, ns, allocs map[string]float64) (lines []string, failed int) {
	if rec.RatioTo != "" {
		cur, ok1 := ns[rec.Benchmark]
		ref, ok2 := ns[rec.RatioTo]
		switch {
		case !ok1 || !ok2 || ref <= 0:
			lines = append(lines, fmt.Sprintf("%s / %s: MISSING from fresh output", rec.Benchmark, rec.RatioTo))
			failed++
		default:
			r := cur / ref
			verdict := ""
			if rec.MaxRatio > 0 && r > rec.MaxRatio {
				verdict = fmt.Sprintf("  FAIL (> %.3g)", rec.MaxRatio)
				failed++
			}
			lines = append(lines, fmt.Sprintf("%s / %s: ratio %.3f (max %.3g)%s", rec.Benchmark, rec.RatioTo, r, rec.MaxRatio, verdict))
		}
	}
	if rec.MaxAllocs != nil {
		a, ok := allocs[rec.Benchmark]
		switch {
		case !ok:
			lines = append(lines, fmt.Sprintf("%s: allocs/op MISSING from fresh output (run with -benchmem)", rec.Benchmark))
			failed++
		case a > *rec.MaxAllocs:
			lines = append(lines, fmt.Sprintf("%s: %.0f allocs/op  FAIL (> %.0f)", rec.Benchmark, a, *rec.MaxAllocs))
			failed++
		default:
			lines = append(lines, fmt.Sprintf("%s: %.0f allocs/op (max %.0f)", rec.Benchmark, a, *rec.MaxAllocs))
		}
	}
	return lines, failed
}

// baselineVerdict judges rec's fresh ns/op, delta (a fraction) above its
// baseline: it fails past threshold, unless rec carries an in-run gate,
// which then judges it alone.
func baselineVerdict(rec record, delta, threshold float64) (verdict string, fail bool) {
	switch {
	case rec.RatioTo != "" || rec.MaxAllocs != nil:
		return "  (in-run gates only)", false
	case delta > threshold:
		return fmt.Sprintf("  FAIL (> %+.0f%%)", threshold*100), true
	}
	return "", false
}

func main() {
	threshold := flag.Float64("threshold", 0.15, "allowed fractional ns/op regression before failing")
	input := flag.String("input", "", "benchmark output file (default: stdin)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchgate [-threshold 0.15] [-input bench.txt] baseline.json...")
		os.Exit(2)
	}

	var data []byte
	var err error
	if *input != "" {
		data, err = os.ReadFile(*input)
	} else {
		data, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	fresh, err := parseBench(bytes.NewReader(data))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	allocs, err := parseUnit(bytes.NewReader(data), "allocs/op")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	var inRun []string

	failed := 0
	fmt.Printf("%-50s %14s %14s %8s\n", "benchmark", "baseline ns/op", "current ns/op", "delta")
	for _, path := range flag.Args() {
		records, err := loadBaselines(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		for _, rec := range records {
			if len(rec.History) == 0 {
				fmt.Fprintf(os.Stderr, "benchgate: %s: %s has no history\n", path, rec.Benchmark)
				failed++
				continue
			}
			base := rec.History[len(rec.History)-1].NsPerOp
			cur, ok := fresh[rec.Benchmark]
			if !ok {
				fmt.Printf("%-50s %14.1f %14s %8s  MISSING from fresh output\n", rec.Benchmark, base, "-", "-")
				failed++
				continue
			}
			delta := (cur - base) / base
			verdict, fail := baselineVerdict(rec, delta, *threshold)
			if fail {
				failed++
			}
			fmt.Printf("%-50s %14.1f %14.1f %+7.1f%%%s\n", rec.Benchmark, base, cur, delta*100, verdict)
			lines, n := inRunGates(rec, fresh, allocs)
			inRun = append(inRun, lines...)
			failed += n
		}
	}
	if len(inRun) > 0 {
		fmt.Println("\nin-run gates:")
		for _, l := range inRun {
			fmt.Println(l)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d benchmark(s) regressed or missing\n", failed)
		os.Exit(1)
	}
}
