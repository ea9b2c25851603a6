// Package experiments regenerates every table and figure of the paper's
// evaluation (§6). Each experiment is a function returning a Table whose
// rows mirror the series the paper plots; cmd/efbench prints them and
// bench_test.go wraps them as benchmarks. See EXPERIMENTS.md for the
// paper-vs-measured record.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/elasticflow/elasticflow/internal/baselines"
	"github.com/elasticflow/elasticflow/internal/core"
	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/model"
	"github.com/elasticflow/elasticflow/internal/sched"
	"github.com/elasticflow/elasticflow/internal/sim"
	"github.com/elasticflow/elasticflow/internal/throughput"
	"github.com/elasticflow/elasticflow/internal/topology"
	"github.com/elasticflow/elasticflow/internal/trace"
	"github.com/elasticflow/elasticflow/internal/validate"
)

// Table is one regenerated figure or table.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// env bundles the shared substrate of all experiments.
type env struct {
	hw   model.Hardware
	est  throughput.Estimator
	prof *throughput.Profiler
}

func newEnv() *env {
	hw := model.DefaultA100()
	est := throughput.NewEstimator(hw)
	return &env{hw: hw, est: est, prof: throughput.NewProfiler(est, 8, 128)}
}

// schedulerSet returns the policies of §6.1 keyed by display name, in the
// paper's ordering. withPollux controls whether the expensive-to-simulate
// Pollux baseline is included (the paper omits it from large testbed runs).
func schedulerSet(withPollux bool) []sched.Scheduler {
	s := []sched.Scheduler{
		core.NewDefault(),
		baselines.EDF{},
		baselines.Gandiva{},
		baselines.Tiresias{},
		baselines.Themis{},
		baselines.Chronus{},
	}
	if withPollux {
		s = append(s, baselines.Pollux{})
	}
	return s
}

// topoFor builds the buddy topology for a GPU count (8-GPU servers).
func topoFor(gpus int) topology.Config {
	servers := gpus / 8
	if servers < 1 {
		servers = 1
	}
	return topology.Config{Servers: servers, GPUsPerServer: 8}
}

// runTrace materializes tr and replays it under s, returning the result.
// Every result passes the post-hoc invariant audit before it is reported —
// an experiment built on an inconsistent simulation is worse than none.
func (e *env) runTrace(tr trace.Trace, s sched.Scheduler) (sim.Result, error) {
	jobs, err := tr.Jobs(e.prof, e.est)
	if err != nil {
		return sim.Result{}, err
	}
	res, err := sim.Run(sim.Config{
		Topology:  topoFor(tr.GPUs),
		Scheduler: s,
		SampleSec: 600,
	}, jobs, tr.Name)
	if err != nil {
		return sim.Result{}, err
	}
	if violations := validate.Audit(res, tr.GPUs); len(violations) > 0 {
		return sim.Result{}, fmt.Errorf("%s on %s failed the invariant audit: %s (+%d more)",
			s.Name(), tr.Name, violations[0], len(violations)-1)
	}
	return res, nil
}

// compare replays tr under every scheduler and returns results keyed by
// scheduler name.
func (e *env) compare(tr trace.Trace, schedulers []sched.Scheduler) (map[string]sim.Result, error) {
	out := make(map[string]sim.Result, len(schedulers))
	for _, s := range schedulers {
		res, err := e.runTrace(tr, s)
		if err != nil {
			return nil, fmt.Errorf("%s on %s: %w", s.Name(), tr.Name, err)
		}
		out[s.Name()] = res
	}
	return out, nil
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// dsrRow formats one scheduler's deadline satisfactory ratio and the
// improvement factor ElasticFlow achieves over it.
func dsrRows(results map[string]sim.Result) [][]string {
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	ef := results["elasticflow"].DeadlineSatisfactoryRatio()
	var rows [][]string
	// ElasticFlow first, then the rest alphabetically.
	ordered := append([]string{"elasticflow"}, filter(names, "elasticflow")...)
	for _, n := range ordered {
		r := results[n]
		dsr := r.DeadlineSatisfactoryRatio()
		factor := "—"
		if n != "elasticflow" && dsr > 0 {
			factor = f2(ef / dsr)
		}
		rows = append(rows, []string{n, f3(dsr), factor, fmt.Sprintf("%d", r.AdmittedCount()), fmt.Sprintf("%d", len(r.Jobs))})
	}
	return rows
}

func filter(names []string, drop string) []string {
	out := names[:0:0]
	for _, n := range names {
		if n != drop {
			out = append(out, n)
		}
	}
	return out
}

// Registry maps experiment IDs to their generators. Experiments whose
// runtime is long take a scale knob through Options.
var Registry = map[string]func(Options) (Table, error){
	"table1": Table1,
	"fig2a":  Fig2a,
	"fig2b":  Fig2b,
	"fig3":   Fig3,
	"fig6a":  Fig6a,
	"fig6b":  Fig6b,
	"fig7a":  Fig7a,
	"fig7b":  Fig7b,
	"fig8a":  Fig8a,
	"fig8b":  Fig8b,
	"fig9":   Fig9,
	"fig10":  Fig10,
	"fig11":  Fig11,
	"fig12a": Fig12a,
	"fig12b": Fig12b,
}

// IDs returns the registered experiment IDs in order.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Options scales experiments: Quick shrinks workloads for fast iteration
// (used by tests); the default reproduces the paper's scales.
type Options struct {
	Quick bool
	// Clock supplies the monotonic wall clock to the experiments that
	// measure the harness's own cost (store, transfer). It must be injected
	// by the caller — this package is simulation-facing, so detlint forbids
	// it from reading wall clocks itself. Nil freezes the clock: such
	// experiments still run but report zero wall time and zero rates.
	Clock func() time.Time
}

// scale returns full when !Quick, else quick.
func (o Options) scale(full, quick int) int {
	if o.Quick {
		return quick
	}
	return full
}

// now reads the injected clock; without one, time stands still.
func (o Options) now() time.Time {
	if o.Clock == nil {
		return time.Time{}
	}
	return o.Clock()
}

// perSec turns an op count over a wall duration into a rate, 0 when the
// clock was not injected (or the interval was immeasurably small).
func perSec(ops int, wall float64) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(ops) / wall
}

// mkJob builds a toy job for the motivating examples.
func mkToyJob(id string, curve throughput.Curve, iters, deadline float64) *job.Job {
	return &job.Job{
		ID:          id,
		GlobalBatch: 8,
		TotalIters:  iters,
		Deadline:    deadline,
		Class:       job.SLO,
		Curve:       curve,
		MinGPUs:     1,
		MaxGPUs:     curve.MaxWorkers(),
	}
}
