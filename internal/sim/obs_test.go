package sim

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/elasticflow/elasticflow/internal/core"
	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/obs/tracing"
	"github.com/elasticflow/elasticflow/internal/topology"
)

// obsTrace builds a deterministic little workload: a mix of feasible jobs,
// a hopeless one (dropped at admission), and enough contention to force
// rescales.
func obsTrace() []*job.Job {
	jobs := []*job.Job{
		simpleJob("a", 200, 0, 400),
		simpleJob("b", 200, 10, 500),
		simpleJob("c", 150, 20, 600),
		simpleJob("impossible", 1e7, 30, 40),
		simpleJob("d", 100, 50, 900),
	}
	for _, j := range jobs {
		j.RescaleOverheadSec = 1
	}
	return jobs
}

// TestObsDeterminism is the golden determinism check of DESIGN.md §8: a run
// with the full observability stack wired (bus, metrics, core decision
// tracing, a ticking injected clock) must produce a byte-identical Result
// to the same run with observability disabled, and the same event trail as
// a run on the real clock — events carry simulated time only.
func TestObsDeterminism(t *testing.T) {
	run := func(o *obs.Obs) Result {
		ef := core.New(core.Options{SlotSec: 1, PowerOfTwo: true}).WithObs(o)
		res, err := Run(Config{
			Topology:  smallTopology(),
			Scheduler: ef,
			SampleSec: 25,
			Obs:       o,
		}, obsTrace(), "golden")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// A fake clock that advances on every read: decision timers observe
	// nonzero latencies without touching the wall clock.
	now := time.Unix(0, 0)
	clock := func() time.Time {
		now = now.Add(time.Millisecond)
		return now
	}
	ticking := obs.New(obs.Options{RingSize: 1 << 20, Clock: clock})
	withObs := run(ticking)
	without := run(nil)
	wall := obs.New(obs.Options{RingSize: 1 << 20})
	run(wall)

	a, err := json.Marshal(withObs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(without)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("Result differs with obs enabled:\nwith:    %s\nwithout: %s", a, b)
	}
	if got, want := trailJSON(t, ticking), trailJSON(t, wall); got != want {
		t.Errorf("event trail depends on the injected clock:\nticking: %s\nwall:    %s", got, want)
	}
}

// trailJSON renders o's whole event trail — the bytes the golden tests
// compare.
func trailJSON(t *testing.T, o *obs.Obs) string {
	t.Helper()
	if n := o.Bus.Evicted(); n > 0 {
		t.Fatalf("event ring evicted %d events; the trail is incomplete", n)
	}
	b, err := json.Marshal(o.Bus.Since(0))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestObsSimWiring: a simulated run populates the bus and the metric
// catalog — admissions, drops, completions, rescales and decision latency
// all move.
func TestObsSimWiring(t *testing.T) {
	o := obs.NewDefault()
	ef := core.New(core.Options{SlotSec: 1, PowerOfTwo: true}).WithObs(o)
	res, err := Run(Config{Topology: smallTopology(), Scheduler: ef, Obs: o}, obsTrace(), "t")
	if err != nil {
		t.Fatal(err)
	}
	if res.AdmittedCount() != 4 {
		t.Errorf("admitted %d, want 4", res.AdmittedCount())
	}

	kinds := map[string]int{}
	for _, ev := range o.Bus.Since(0) {
		kinds[ev.Kind]++
	}
	if kinds[obs.KindAdmit] != 4 || kinds[obs.KindDrop] != 1 {
		t.Errorf("bus kinds = %v, want 4 admits and 1 drop", kinds)
	}
	if kinds[obs.KindComplete] != 4 {
		t.Errorf("bus kinds = %v, want 4 completes", kinds)
	}
	if kinds[obs.KindSchedAdmit] != 5 || kinds[obs.KindSchedAlloc] == 0 {
		t.Errorf("bus kinds = %v, want 5 sched-admit and some sched-alloc", kinds)
	}

	var b strings.Builder
	if err := o.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`ef_admissions_total{verdict="admit"} 4`,
		`ef_admissions_total{verdict="drop"} 1`,
		`ef_completions_total{met="true"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if !strings.Contains(out, `ef_sched_decision_seconds_count{op="admit"} 5`) {
		t.Error("metrics missing admit decision latency observations")
	}
}

// TestObsCountersMatchEvents: the lifecycle counters are derived from the
// event stream, so over a traced run with a failure window (which forces
// rescales and migrations) each series equals the number of bus events of
// its kind and label.
func TestObsCountersMatchEvents(t *testing.T) {
	o := obs.New(obs.Options{RingSize: 1 << 20, Tracer: tracing.New(7)})
	res, err := Run(Config{
		Topology:  topology.Config{Servers: 4, GPUsPerServer: 4},
		Scheduler: core.New(core.Options{SlotSec: 1, PowerOfTwo: true}).WithObs(o),
		Failures:  []Failure{{Server: 1, StartSec: 250, DurationSec: 350}},
		Obs:       o,
	}, randomWorkload(11, 80), "counters")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rescales == 0 || res.Migrations == 0 {
		t.Fatalf("run made %d rescales and %d migrations; the check needs both", res.Rescales, res.Migrations)
	}
	want := map[string]int{}
	for _, ev := range o.Bus.Since(0) {
		switch ev.Kind {
		case obs.KindAdmit, obs.KindDrop:
			want[fmt.Sprintf(`ef_admissions_total{verdict="%s"}`, ev.Kind)]++
		case obs.KindComplete:
			met, _ := ev.Field("met")
			want[fmt.Sprintf(`ef_completions_total{met="%s"}`, met)]++
		case obs.KindRescale:
			want["ef_rescales_total"]++
		case obs.KindMigrate:
			want["ef_migrations_total"]++
		}
	}
	var b strings.Builder
	if err := o.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for series, n := range want {
		if line := fmt.Sprintf("%s %d\n", series, n); !strings.Contains(b.String(), line) {
			t.Errorf("metrics lack %q (bus events)", strings.TrimSpace(line))
		}
	}
}

// TestPlanCacheGoldenTrail extends the golden determinism check to the plan
// cache: a full simulated run with the cache enabled (the default) must
// produce a byte-identical Result — every event, allocation, completion time
// and metric-bearing field — to the same run with the cache disabled,
// including across node failures that invalidate mid-run.
func TestPlanCacheGoldenTrail(t *testing.T) {
	run := func(disable bool) string {
		ef := core.New(core.Options{SlotSec: 1, PowerOfTwo: true, DisablePlanCache: disable})
		o := obs.New(obs.Options{RingSize: 1 << 20})
		res, err := Run(Config{
			Topology:  smallTopology(),
			Scheduler: ef,
			SampleSec: 25,
			Failures:  []Failure{{Server: 0, StartSec: 60, DurationSec: 120}},
			Obs:       o,
		}, obsTrace(), "golden")
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(out) + trailJSON(t, o)
	}
	if cached, cold := run(false), run(true); cached != cold {
		t.Errorf("Result or event trail differs with plan cache enabled:\ncached: %s\ncold:   %s", cached, cold)
	}
}
