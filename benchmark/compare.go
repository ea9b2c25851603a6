package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json the harness reads.
type benchmarkSpec struct {
	Workloads []workloadSpec  `json:"workloads"`
	EndToEnd  []boundedMetric `json:"end_to_end"`
	PerLayer  []boundedMetric `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// readRuns loads the untraced run files of one directory: workload → metric
// → one value per run. Runs marked invalid are named on w and still counted:
// lateness only ever makes a run's timings worse.
func readRuns(dir string, w io.Writer) (map[string]map[string][]float64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*-trace0.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s holds no untraced run files (*-trace0.json)", dir)
	}
	out := make(map[string]map[string][]float64)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f runFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, why := range f.Invalid {
			fmt.Fprintf(w, "invalid run %s: %s\n", p, why)
		}
		if out[f.Workload] == nil {
			out[f.Workload] = make(map[string][]float64)
		}
		for name, m := range f.Result.Metrics {
			out[f.Workload][name] = append(out[f.Workload][name], m.Value)
		}
	}
	return out, nil
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, quartiles as Python's statistics.quantiles(n=4) gives
// them. Fewer than two values have no spread.
func quartileSpread(values []float64) float64 {
	m := len(values)
	if m < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	spread := (q(3) - q(1)) / med
	if spread < 0 {
		spread = -spread
	}
	return spread
}

// pyMedian is the middle value, the mean of the middle two for an even count.
func pyMedian(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// compareDirs prints one row per workload × end-to-end metric — both medians,
// how much worse B is than A as a share of A, and the bound — and returns 1
// if any row is outside its bound.
func compareDirs(dirA, dirB string, w io.Writer) int {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	a, err := readRuns(dirA, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readRuns(dirB, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return compareSets(spec, a, b, w)
}

func compareSets(spec benchmarkSpec, a, b map[string]map[string][]float64, w io.Writer) int {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian A\tmedian B\tworse by\tbound\tspread A\tspread B\tverdict")
	code := 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t%.2f\t-\t-\tmissing\n", wl.Name, m.Name, m.Bound)
				code = 1
				continue
			}
			ma, mb := pyMedian(va), pyMedian(vb)
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := quartileSpread(va), quartileSpread(vb)
			verdict := "unchanged"
			switch {
			case worse > m.Bound:
				verdict = "REGRESSION"
				code = 1
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			case worse < -m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\n",
				wl.Name, m.Name, ma, mb, worse*100, m.Bound*100, sa*100, sb*100, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return code
}
