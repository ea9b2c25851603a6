// Command benchgate compares two `go test -bench` outputs and fails when any
// benchmark's median wall time regressed beyond a threshold. CI runs it
// between the PR base and head (see .github/workflows/ci.yml); locally,
// `make bench` drives it against a saved baseline over the Makefile's
// BENCH_GATE set.
//
// Usage:
//
//	benchgate -base base.txt -head head.txt [-threshold 0.15] [-bench regexp]
//
// Medians over -count repetitions absorb runner noise; a single noisy
// repetition cannot fail the gate. Benchmarks present on only one side are
// reported but never fail the gate (new or deleted benchmarks are not
// regressions). CI skips the whole job when the PR carries the perf-exempt
// label. The tool depends only on the standard library on purpose: benchstat
// renders the human-readable comparison in CI, but the pass/fail decision
// must not hinge on installing anything.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// benchLine matches e.g.
//
//	BenchmarkFig6aTestbedSmall-8   1   1498238 ns/op   456376 B/op  4215 allocs/op
//
// capturing the name (CPU suffix stripped separately) and the ns/op value.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+) ns/op`)

// cpuSuffix strips the -<GOMAXPROCS> suffix Go appends to benchmark names.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

func parse(path string, filter *regexp.Regexp) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]float64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := cpuSuffix.ReplaceAllString(m[1], "")
		if filter != nil && !filter.MatchString(name) {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad ns/op in %q: %w", path, sc.Text(), err)
		}
		out[name] = append(out[name], v)
	}
	return out, sc.Err()
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func main() {
	base := flag.String("base", "", "benchmark output of the base commit")
	head := flag.String("head", "", "benchmark output of the head commit")
	threshold := flag.Float64("threshold", 0.15, "maximum tolerated relative wall-time regression")
	benchRE := flag.String("bench", "", "only gate benchmarks matching this regexp (default: all)")
	flag.Parse()

	if *base == "" || *head == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -base and -head are required")
		os.Exit(2)
	}
	var filter *regexp.Regexp
	if *benchRE != "" {
		var err error
		if filter, err = regexp.Compile(*benchRE); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: -bench: %v\n", err)
			os.Exit(2)
		}
	}
	baseRuns, err := parse(*base, filter)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	headRuns, err := parse(*head, filter)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	if len(headRuns) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmark results in head output")
		os.Exit(2)
	}

	names := make([]string, 0, len(headRuns))
	for name := range headRuns {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	fmt.Printf("%-44s %14s %14s %8s\n", "benchmark", "base med", "head med", "delta")
	for _, name := range names {
		h := median(headRuns[name])
		b, ok := baseRuns[name]
		if !ok {
			fmt.Printf("%-44s %14s %14.0f %8s\n", name, "(new)", h, "-")
			continue
		}
		bm := median(b)
		delta := (h - bm) / bm
		mark := ""
		if delta > *threshold {
			mark = "  REGRESSION"
			failed = true
		}
		fmt.Printf("%-44s %14.0f %14.0f %+7.1f%%%s\n", name, bm, h, delta*100, mark)
	}
	for name := range baseRuns {
		if _, ok := headRuns[name]; !ok {
			fmt.Printf("%-44s %14.0f %14s %8s\n", name, median(baseRuns[name]), "(gone)", "-")
		}
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchgate: wall-time regression beyond %.0f%% — label the PR perf-exempt if intentional\n", *threshold*100)
		os.Exit(1)
	}
	fmt.Printf("benchgate: ok (threshold %.0f%%)\n", *threshold*100)
}
