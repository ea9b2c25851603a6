package validate

import (
	"math"
	"strings"
	"testing"

	"github.com/elasticflow/elasticflow/internal/core"
	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/model"
	"github.com/elasticflow/elasticflow/internal/sim"
	"github.com/elasticflow/elasticflow/internal/throughput"
	"github.com/elasticflow/elasticflow/internal/topology"
	"github.com/elasticflow/elasticflow/internal/trace"
)

// TestAuditCleanRun: real simulations pass both audits — including the
// strict §3.1 guarantee that every admitted job met its deadline — across
// several seeded workloads.
func TestAuditCleanRun(t *testing.T) {
	est := throughput.NewEstimator(model.DefaultA100())
	prof := throughput.NewProfiler(est, 8, 64)
	for _, seed := range []int64{21, 22, 23, 99} {
		tr := trace.Generate(trace.Config{Name: "audit", Jobs: 40, ClusterGPUs: 64, Load: 1.4, Seed: seed})
		jobs, err := tr.Jobs(prof, est)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sim.Config{
			Topology:  topology.Config{Servers: 8, GPUsPerServer: 8},
			Scheduler: core.NewDefault(),
			SampleSec: 300,
		}, jobs, tr.Name)
		if err != nil {
			t.Fatal(err)
		}
		if violations := Audit(res, 64); len(violations) != 0 {
			t.Errorf("seed %d: clean run failed audit:\n%s", seed, strings.Join(violations, "\n"))
		}
		if violations := AuditGuarantee(res); len(violations) != 0 {
			t.Errorf("seed %d: guarantee audit failed:\n%s", seed, strings.Join(violations, "\n"))
		}
	}
}

// TestGuaranteeCeilingPhillyScale pins how many admitted jobs miss their
// deadline on the benchmark's sim_philly replay (1 440 trace.PhillyScale jobs
// on 256×8 GPUs, serial engine): the §3.1 guarantee does not hold there yet,
// and the count must not grow. The ceilings are the counts measured when the
// test was written; lower them when a change brings the count down.
func TestGuaranteeCeilingPhillyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("Philly-scale replay; at a shorter trace both seeds audit clean")
	}
	est := throughput.NewEstimator(model.DefaultA100())
	for _, c := range []struct {
		seed    int64
		ceiling int
	}{{1, 63}, {7919, 88}} {
		tr := trace.PhillyScale(1440, c.seed)
		jobs, err := tr.Jobs(throughput.NewProfiler(est, 8, 128), est)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sim.Config{
			Topology:  topology.Config{Servers: 256, GPUsPerServer: 8},
			Scheduler: core.NewDefault(),
		}, jobs, tr.Name)
		if err != nil {
			t.Fatal(err)
		}
		late := len(AuditGuarantee(res))
		t.Logf("seed %d: %d admitted, %d late", c.seed, res.AdmittedCount(), late)
		if late > c.ceiling {
			t.Errorf("seed %d: %d admitted jobs missed their deadline, ceiling %d", c.seed, late, c.ceiling)
		} else if late < c.ceiling {
			t.Errorf("seed %d: %d admitted jobs missed their deadline, below the ceiling %d: lower the ceiling to %d", c.seed, late, c.ceiling, late)
		}
	}
}

// TestAuditDetectsViolations: each corrupted field is caught.
func TestAuditDetectsViolations(t *testing.T) {
	base := func() sim.Result {
		return sim.Result{
			Makespan: 100,
			Samples: []sim.Sample{
				{Time: 0, UsedGPUs: 2, Submitted: 1, Admitted: 1, Running: 1},
				{Time: 50, UsedGPUs: 1, Submitted: 1, Admitted: 1, Running: 1},
			},
			Jobs: []sim.JobResult{{
				ID: "a", Submit: 0, Deadline: 90, Completion: 80,
				Finished: true, Met: true, GPUSeconds: 100,
			}},
		}
	}
	cases := []struct {
		name string
		mut  func(*sim.Result)
		want string
	}{
		{"overcommit", func(r *sim.Result) { r.Samples[0].UsedGPUs = 99 }, "capacity"},
		{"time order", func(r *sim.Result) { r.Samples[1].Time = -5 }, "before previous"},
		{"admit accounting", func(r *sim.Result) { r.Samples[0].Dropped = 5 }, "!= submitted"},
		{"running excess", func(r *sim.Result) { r.Samples[0].Running = 9 }, "exceeds admitted"},
		{"dropped+finished", func(r *sim.Result) { r.Jobs[0].Dropped = true }, "both dropped and finished"},
		{"met flag", func(r *sim.Result) { r.Jobs[0].Completion = 95 }, "Met=true but"},
		{"time travel", func(r *sim.Result) { r.Jobs[0].Completion = -1; r.Jobs[0].Met = false }, "before submission"},
		{"gpu bound", func(r *sim.Result) { r.Jobs[0].GPUSeconds = 1e9 }, "lifetime bound"},
		{"beyond makespan", func(r *sim.Result) { r.Makespan = 10 }, "after makespan"},
		{"no gpu time", func(r *sim.Result) { r.Jobs[0].GPUSeconds = 0 }, "without consuming"},
	}
	for _, tc := range cases {
		r := base()
		tc.mut(&r)
		violations := Audit(r, 4)
		found := false
		for _, v := range violations {
			if strings.Contains(v, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: audit missed the violation (got %v)", tc.name, violations)
		}
	}
}

func TestAuditGuaranteeFlagsMisses(t *testing.T) {
	r := sim.Result{Jobs: []sim.JobResult{
		{ID: "late", Deadline: 10, Finished: true, Completion: 20, Met: false},
		{ID: "dropped", Deadline: 10, Dropped: true},
		{ID: "be", Deadline: math.Inf(1), Finished: true},
	}}
	v := AuditGuarantee(r)
	if len(v) != 1 || !strings.Contains(v[0], "late") {
		t.Errorf("guarantee audit = %v want exactly the late job", v)
	}
	_ = job.SLO // keep the import meaningful if the fixture grows
}
