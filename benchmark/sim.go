package main

import (
	"os"
	"reflect"
	"runtime"
	"time"

	"github.com/elasticflow/elasticflow/internal/core"
	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/model"
	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/obs/tracing"
	"github.com/elasticflow/elasticflow/internal/sched"
	"github.com/elasticflow/elasticflow/internal/sim"
	"github.com/elasticflow/elasticflow/internal/throughput"
	"github.com/elasticflow/elasticflow/internal/topology"
	"github.com/elasticflow/elasticflow/internal/trace"
)

// simJobsPerSecond sizes sim_philly: the trace holds this many jobs per
// second of -seconds, which is about what the serial engine replays per
// second on the 2-CPU baseline host. The work is fixed by the arguments, not
// by the clock, so dsr and admitted_share repeat exactly for a seed and a
// faster engine simply finishes sooner.
const simJobsPerSecond = 60

// simTopology is the trace.PhillyScale cluster: 2,048 GPUs in 8-GPU servers.
var simTopology = topology.Config{Servers: 256, GPUsPerServer: 8}

// timedCore times the two scheduler entry points from outside. Embedding the
// concrete scheduler keeps its other methods (Name, InvalidatePlanCache)
// promoted, so sched.PlanCached still resolves through the wrapper.
type timedCore struct {
	*core.ElasticFlow
	admitUs []float64
	allocUs []float64
	spans   *spanLog
}

func (t *timedCore) Admit(now float64, cand *job.Job, active []*job.Job, g int) bool {
	start := time.Now()
	ok := t.ElasticFlow.Admit(now, cand, active, g)
	end := time.Now()
	t.admitUs = append(t.admitUs, us(end.Sub(start)))
	t.spans.add("core.admit", cand.ID, "sim.run", start, end)
	return ok
}

func (t *timedCore) Schedule(now float64, active []*job.Job, g int) sched.Decision {
	start := time.Now()
	d := t.ElasticFlow.Schedule(now, active, g)
	end := time.Now()
	t.allocUs = append(t.allocUs, us(end.Sub(start)))
	t.spans.add("core.allocate", "", "sim.run", start, end)
	return d
}

var _ sched.PlanCached = (*timedCore)(nil)

// materialise turns the seed into schedulable jobs through a cold profiler,
// the way efsim does before every replay.
func materialise(jobs int, seed int64) (trace.Trace, []*job.Job, error) {
	tr := trace.PhillyScale(jobs, seed)
	est := throughput.NewEstimator(model.DefaultA100())
	js, err := tr.Jobs(throughput.NewProfiler(est, 8, 128), est)
	return tr, js, err
}

// replay runs one simulation and returns its result and wall time.
func replay(jobsN int, seed int64, s sched.Scheduler, workers int, o *obs.Obs) (sim.Result, time.Duration, error) {
	tr, jobs, err := materialise(jobsN, seed)
	if err != nil {
		return sim.Result{}, 0, err
	}
	start := time.Now()
	res, err := sim.Run(sim.Config{Topology: simTopology, Scheduler: s, Workers: workers, Obs: o}, jobs, tr.Name)
	return res, time.Since(start), err
}

// runSim is the sim_philly workload: no HTTP, front door, platform or store;
// Algorithm 1 and 2 plus buddy placement dominate.
func runSim(cfg runConfig) (*runResult, error) {
	r := newRunResult(cfg.traced)
	jobsN := int(cfg.seconds * simJobsPerSecond)
	if jobsN < 40 {
		jobsN = 40
	}

	// Set-up, several times so the reported value is a median.
	var setups []float64
	for i := 0; i < 31; i++ {
		start := time.Now()
		if _, _, err := materialise(jobsN, cfg.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	tc := &timedCore{ElasticFlow: core.NewDefault(), spans: r.spans}
	core.ResetPlanCacheStats()
	cpu0, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	runStart := time.Now()
	res, wall, err := replay(jobsN, cfg.seed, tc, 1, nil)
	if err != nil {
		return nil, err
	}
	r.spans.add("sim.run", "", "", runStart, runStart.Add(wall))
	cpu1, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	hits, misses := core.PlanCacheStats()

	r.attempted = jobsN
	r.failed = jobsN - len(res.Jobs)
	r.check(len(res.Jobs) == jobsN, "sim returned %d job results for %d jobs", len(res.Jobs), jobsN)
	r.check(len(tc.admitUs) == jobsN, "Admit ran %d times for %d arrivals", len(tc.admitUs), jobsN)
	dsr := res.DeadlineSatisfactoryRatio()
	admitted := res.AdmittedCount()

	r.exact["dsr"], r.exact["sim.admitted"] = dsr, float64(admitted)
	if !cfg.traced {
		e := r.metrics
		e.set("setup_s", median(setups))
		e.set("submit_p50_ms", median(tc.admitUs)/1000)
		e.set("submit_rps", float64(jobsN)/wall.Seconds())
		e.set("server_cpu_ms_per_req", ms(cpu1-cpu0)/float64(jobsN))
		e.set("server_peak_rss_mb", rss)
		e.set("admitted_share", float64(admitted)/float64(jobsN))
		e.set("dsr", dsr)
		r.info["sim.cluster_efficiency"] = res.AvgClusterEfficiency()
		return r, nil
	}

	admitS, allocS := sumSeconds(tc.admitUs), sumSeconds(tc.allocUs)
	p := r.metrics
	p.set("loadgen.samples", float64(jobsN))
	p.set("core.admit_calls", float64(len(tc.admitUs)))
	p.set("core.admit_busy_s", admitS)
	p.set("core.admit_us_mean", mean(tc.admitUs))
	p.set("core.allocate_calls", float64(len(tc.allocUs)))
	p.set("core.allocate_busy_s", allocS)
	p.set("core.allocate_us_mean", mean(tc.allocUs))
	p.set("core.busy_ms_per_req", (admitS+allocS)*1000/float64(jobsN))
	p.set("core.busy_share", (admitS+allocS)/wall.Seconds())
	p.set("core.plancache_hit_ratio", ratio(float64(hits), float64(hits+misses)))
	p.set("sim.wall_s", wall.Seconds())
	p.set("sim.self_s", wall.Seconds()-admitS-allocS)
	p.set("sim.jobs_per_s", float64(jobsN)/wall.Seconds())
	p.set("sim.admitted", float64(admitted))
	p.set("sim.cluster_efficiency", res.AvgClusterEfficiency())

	// The side experiments replay a quarter-length prefix of the same
	// arrival process: three more full-length replays would not fit a run.
	sideN := jobsN / 4
	if sideN < 40 {
		sideN = 40
	}
	// Plain, observed, parallel, observed, plain: the overhead ratio compares
	// sums of an ABBA order, so drift over the five replays cancels.
	type side struct {
		sched   *core.ElasticFlow
		workers int
		o       *obs.Obs
	}
	observed := func() side {
		o := obs.New(obs.Options{Tracer: tracing.New(uint64(cfg.seed) + 1)})
		return side{core.NewDefault().WithObs(o), 1, o}
	}
	workers := runtime.NumCPU()
	sides := []side{{core.NewDefault(), 1, nil}, observed(), {core.NewDefault(), workers, nil}, observed(), {core.NewDefault(), 1, nil}}
	results := make([]sim.Result, len(sides))
	walls := make([]float64, len(sides))
	for i, s := range sides {
		res, wall, err := replay(sideN, cfg.seed, s.sched, s.workers, s.o)
		if err != nil {
			return nil, err
		}
		results[i], walls[i] = res, wall.Seconds()
	}
	for i := 1; i < len(results); i++ {
		r.check(reflect.DeepEqual(results[0], results[i]),
			"side replay %d (workers %d, obs %v) differs from the plain serial result", i, sides[i].workers, sides[i].o != nil)
	}
	plain := walls[0] + walls[4]
	p.set("sim.speedup_wN", plain/2/walls[2])
	p.set("obs.sim_overhead_ratio", (walls[1]+walls[3])/plain-1)

	_, jobs, err := materialise(sideN, cfg.seed)
	if err != nil {
		return nil, err
	}
	gpus := simTopology.Servers * simTopology.GPUsPerServer
	directCore(p, r.spans, jobs, gpus, directCalls(cfg.seconds))
	directPlan(p, r.spans, jobs, gpus, directCalls(cfg.seconds))
	if err := directTopology(p, r.spans, jobs, simTopology); err != nil {
		return nil, err
	}
	return r, directThroughput(p, r.spans, jobs, 128)
}

func sumSeconds(usValues []float64) float64 {
	s := 0.0
	for _, v := range usValues {
		s += v
	}
	return s / 1e6
}
