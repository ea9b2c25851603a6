package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain moves to the repository root, where the harness is run from: it
// builds ./cmd/efserver and reads BENCHMARK.json relative to it.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// TestCatalogMatchesSpec holds BENCHMARK.json and the harness's catalog
// together: same names, units and directions, in the same order.
func TestCatalogMatchesSpec(t *testing.T) {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		spec []boundedMetric
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json names %d metrics, the catalog %d", c.kind, len(c.spec), len(c.defs))
		}
		for i, d := range c.defs {
			s := c.spec[i]
			if s.Name != d.Name || s.Unit != d.Unit || s.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the catalog %+v", c.kind, i, s, d)
			}
		}
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloadNames[i])
		}
	}
}

// TestEveryWorkloadEmitsTheCatalog runs every workload for one second, both
// untraced and traced, and checks that each run emits exactly the metrics
// BENCHMARK.json names for it, each with its unit and a finite value, and
// leaves its run file and span file behind.
func TestEveryWorkloadEmitsTheCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives efserver")
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	hooks := &exitHooks{}
	defer hooks.run()
	cfg := runConfig{seed: defaultSeed, seconds: 1, outDir: t.TempDir(), buildDir: t.TempDir(), exit: hooks}
	for _, traced := range []bool{false, true} {
		want := spec.EndToEnd
		if traced {
			want = spec.PerLayer
		}
		for _, w := range workloadNames {
			cfg.workload, cfg.traced = w, traced
			out, err := runOne(cfg)
			hooks.run()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if out.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d", w, traced, out.Attempted)
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", w, traced, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not emitted", w, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: %s has unit %q, want %q", w, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: %s is %v", w, traced, m.Name, got.Value)
				}
			}
			if _, err := os.Stat(cfg.runFilePath(traced)); err != nil {
				t.Errorf("%s traced=%v: no run file: %v", w, traced, err)
			}
			if traced {
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w, err)
				}
			}
		}
	}
	entries, err := os.ReadDir(cfg.buildDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Errorf("temporary directory %s was left behind", e.Name())
		}
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	values := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(values), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := pyMedian(values); got != 5.5 {
		t.Errorf("pyMedian = %v, want 5.5", got)
	}
}

func TestCompareSetsVerdicts(t *testing.T) {
	spec := benchmarkSpec{Workloads: []workloadSpec{{"w"}}, EndToEnd: []boundedMetric{
		{Name: "lat", Better: "lower", Bound: 0.1},
		{Name: "rate", Better: "higher", Bound: 0.1},
		{Name: "noisy", Better: "lower", Bound: 0.1},
	}}
	a := map[string]map[string][]float64{"w": {"lat": {10, 10, 10}, "rate": {100, 100, 100}, "noisy": {8, 10, 12}}}
	same := map[string]map[string][]float64{"w": {"lat": {10.5, 10.5, 10.5}, "rate": {95, 95, 95}, "noisy": {8, 10, 12}}}
	worse := map[string]map[string][]float64{"w": {"lat": {10, 10, 10}, "rate": {80, 80, 80}, "noisy": {8, 10, 12}}}
	var out bytes.Buffer
	if code := compareSets(spec, a, same, &out); code != 0 {
		t.Errorf("within bounds: exit %d, want 0", code)
	}
	if got := out.String(); !strings.Contains(got, "unresolved") || !strings.Contains(got, "unchanged") {
		t.Errorf("want an unchanged and an unresolved row, got:\n%s", got)
	}
	out.Reset()
	if code := compareSets(spec, a, worse, &out); code != 1 || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("rate fell 20%%: exit %d, output:\n%s", code, out.String())
	}
}
