// Command benchmark is the repo's real-path benchmark (see README.md beside
// this file and BENCHMARK.json at the repo root). It drives the two surfaces
// the paper evaluates — the live control plane over loopback HTTP and the
// trace-driven simulator — from inputs made from a seed, checks the outputs,
// and prints one JSON result per run.
//
//	go run ./benchmark -workload live_philly -seed 1 -seconds 24 -trace 0
//	go run ./benchmark -seed 1                  # every workload, untraced then traced
//	go run ./benchmark -compare dirA dirB       # two sets of run files, against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	// defaultSeed is the seed the README's recorded baseline uses.
	// heldOutSeed (README.md) was never run while the harness was tuned.
	defaultSeed = 1
	// defaultSeconds is BENCHMARK.json's run_seconds.
	defaultSeconds = 24
)

// workloadNames is every workload in the order BENCHMARK.json lists them.
var workloadNames = []string{"live_philly", "live_uniform", "live_mixed", "sim_philly"}

// runConfig is one run's arguments.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	outDir   string
	// buildDir holds the efserver binary and the run's temporary state.
	buildDir string
	exit     *exitHooks
}

// exitHooks run on every way out of the process, so no child server or
// temporary directory outlives it.
type exitHooks struct {
	mu  sync.Mutex
	fns []func()
}

func (cfg runConfig) atExit(f func()) {
	cfg.exit.mu.Lock()
	cfg.exit.fns = append(cfg.exit.fns, f)
	cfg.exit.mu.Unlock()
}

// tempDir makes a directory under buildDir that every exit path removes.
func (cfg runConfig) tempDir(kind string) (string, error) {
	dir, err := os.MkdirTemp(cfg.buildDir, "tmp-"+kind+"-")
	if err != nil {
		return "", err
	}
	cfg.atExit(func() {
		if err := os.RemoveAll(dir); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: removing %s: %v\n", dir, err)
		}
	})
	return filepath.Abs(dir)
}

func (h *exitHooks) run() {
	h.mu.Lock()
	fns := h.fns
	h.fns = nil
	h.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// runResult is what one run measured and whether its outputs were right.
type runResult struct {
	metrics   *metricSet
	attempted int
	failed    int
	// failures are the output checks that did not hold.
	failures []string
	// invalidity says why the run's timings cannot be trusted, if so.
	invalidity []string
	// exact holds values that must repeat to the last digit between the
	// untraced and the traced run of one workload and seed.
	exact map[string]float64
	// info is written beside the metrics in the run file but not printed.
	info  map[string]float64
	spans *spanLog
}

func newRunResult(traced bool) *runResult {
	r := &runResult{info: map[string]float64{}, exact: map[string]float64{}}
	if traced {
		r.metrics = newMetricSet(perLayer)
		r.spans = &spanLog{}
	} else {
		r.metrics = newMetricSet(endToEnd)
	}
	return r
}

func (r *runResult) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *runResult) invalid(format string, args ...any) {
	r.invalidity = append(r.invalidity, fmt.Sprintf(format, args...))
}

func (r *runResult) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(format, args...)
	}
}

// output is the line the driver reads, and with the extra fields the run
// file the harness keeps.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type runFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Traced   bool               `json:"traced"`
	Host     map[string]string  `json:"host"`
	Failures []string           `json:"failures,omitempty"`
	Invalid  []string           `json:"invalid,omitempty"`
	Exact    map[string]float64 `json:"exact,omitempty"`
	Info     map[string]float64 `json:"info,omitempty"`
	Result   output             `json:"result"`
}

func (cfg runConfig) runFilePath(traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, t))
}

// untraced looks a value up in the untraced run file of the same workload,
// seed and length, if one has been written to the output directory.
func (cfg runConfig) untraced(name string) (float64, bool) {
	data, err := os.ReadFile(cfg.runFilePath(false))
	if err != nil {
		return 0, false
	}
	var f runFile
	if json.Unmarshal(data, &f) != nil || f.Seconds != cfg.seconds {
		return 0, false
	}
	for _, values := range []map[string]float64{f.Exact, f.Info} {
		if v, ok := values[name]; ok {
			return v, true
		}
	}
	return 0, false
}

// hostFacts describes where the numbers came from.
func hostFacts() map[string]string {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     commit,
	}
}

// runOne runs one workload once, writes its run file (and span file, when
// traced) and returns the line to print.
func runOne(cfg runConfig) (output, error) {
	var r *runResult
	var err error
	if w, ok := liveWorkloads[cfg.workload]; ok {
		r, err = runLive(cfg, w)
	} else if cfg.workload == "sim_philly" {
		r, err = runSim(cfg)
	} else {
		err = fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return output{}, err
	}
	if cfg.traced {
		for name, v := range r.exact {
			if base, ok := cfg.untraced(name); ok {
				r.check(base == v, "%s is %v traced but was %v untraced", name, v, base)
			}
		}
		if err := r.spans.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")); err != nil {
			return output{}, err
		}
	}
	metrics, err := r.metrics.emit(cfg.traced)
	if err != nil {
		return output{}, err
	}
	out := output{Correct: len(r.failures) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "benchmark: check failed:", f)
	}
	for _, f := range r.invalidity {
		fmt.Fprintln(os.Stderr, "benchmark: run invalid:", f)
	}
	data, err := json.MarshalIndent(runFile{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
		Host: hostFacts(), Failures: r.failures, Invalid: r.invalidity, Exact: r.exact, Info: r.info, Result: out,
	}, "", "  ")
	if err != nil {
		return output{}, err
	}
	return out, os.WriteFile(cfg.runFilePath(cfg.traced), data, 0o644)
}

func main() {
	hooks := &exitHooks{}
	code := realMain(hooks)
	hooks.run()
	os.Exit(code)
}

func realMain(hooks *exitHooks) int {
	workload := flag.String("workload", "", "workload to run (default: every workload, untraced then traced)")
	seed := flag.Int64("seed", defaultSeed, "the only source of randomness")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the measured part of a run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "runs"), "directory for run files and span files")
	compare := flag.Bool("compare", false, "compare two directories of run files: -compare dirA dirB")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare dirA dirB")
			return 2
		}
		return compareDirs(flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-out DIR]")
		return 2
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: run from the root of the repository:", err)
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, outDir: *out, buildDir: ".bench_build", exit: hooks}
	for _, dir := range []string{cfg.buildDir, cfg.outDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}

	// A signal takes the same way out as a finished run.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		hooks.run()
		os.Exit(130)
	}()

	type pass struct {
		workload string
		traced   bool
	}
	var passes []pass
	if *workload != "" {
		passes = []pass{{*workload, *trace == 1}}
	} else {
		for _, traced := range []bool{false, true} {
			for _, w := range workloadNames {
				passes = append(passes, pass{w, traced})
			}
		}
	}
	code := 0
	for _, p := range passes {
		cfg.workload, cfg.traced = p.workload, p.traced
		start := time.Now()
		res, err := runOne(cfg)
		hooks.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", p.workload, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s seed %d trace %v: %.1fs, run file %s\n",
			p.workload, cfg.seed, p.traced, time.Since(start).Seconds(), cfg.runFilePath(p.traced))
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Println(string(line))
		if !res.Correct {
			code = 1
		}
	}
	return code
}
