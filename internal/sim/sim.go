// Package sim is the discrete-event cluster simulator of §6.1: it replays a
// trace of training jobs against a scheduler, simulating job-level events
// (arrival, elastic scaling, migration, completion) with the profiled
// throughput model, charging scaling/migration overheads, and collecting the
// paper's metrics — deadline satisfactory ratio, cluster efficiency (Eq. 8),
// best-effort JCT, makespan and allocation timelines.
package sim

import (
	"fmt"
	"math"
	"sort"

	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/model"
	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/obs/tracing"
	"github.com/elasticflow/elasticflow/internal/sched"
	"github.com/elasticflow/elasticflow/internal/throughput"
	"github.com/elasticflow/elasticflow/internal/topology"
)

// Config configures one simulation run.
type Config struct {
	// Topology describes the cluster; its capacity bounds scheduling.
	Topology topology.Config
	// Scheduler is the policy under test.
	Scheduler sched.Scheduler
	// PlacementFree skips buddy placement and only enforces the capacity
	// bound; used by the unit-increment ablation whose allocations are
	// not powers of two.
	PlacementFree bool
	// NoOverheads disables rescale overhead charging (ablation).
	NoOverheads bool
	// SampleSec adds periodic timeline samples between events (0 = only
	// at events).
	SampleSec float64
	// MaxSimSec aborts runaway simulations (default 120 days). The abort is
	// shard-aware: in a parallel run the coordinator owns the clock, every
	// shard operation is a synchronous fork/join, and Run reaps the shard
	// goroutines on the error path, so a runaway simulation can never leave
	// a worker stranded at the barrier (TestMaxSimSecAbortsParallelRun).
	MaxSimSec float64
	// Workers shards the engine's per-event scans across this many
	// goroutines synchronized at scheduling-epoch barriers (parallel.go).
	// 0 or 1 runs the serial loop. The Result — and the event and span
	// trails — is byte-identical at every worker count.
	Workers int
	// Failures injects node failures (§4.4): while a server is down its
	// GPUs are unavailable, and the jobs placed on it checkpoint-restore
	// onto the remaining capacity.
	Failures []Failure
	// Obs, when non-nil, receives the run's events (admissions, drops,
	// rescales, migrations, completions, failures) on its structured bus,
	// stamped with simulated time, plus metrics: the counters those events
	// stand for, utilization and efficiency gauges, and scheduling-decision
	// latency. Observability is purely additive — the Result is
	// byte-identical with Obs set or nil (see TestObsDeterminism).
	Obs *obs.Obs
}

// Failure describes one injected node failure.
type Failure struct {
	// Server is the failing server's index.
	Server int
	// StartSec is when the server goes down.
	StartSec float64
	// DurationSec is how long it stays down.
	DurationSec float64
}

// Sample is one point of the simulation timeline.
type Sample struct {
	Time              float64
	UsedGPUs          int
	ClusterEfficiency float64
	Submitted         int
	Admitted          int
	Running           int
	Completed         int
	Dropped           int
}

// JobResult records one job's fate.
type JobResult struct {
	ID         string
	Class      job.Class
	Submit     float64
	Deadline   float64
	Completion float64
	Dropped    bool
	Finished   bool
	Met        bool
	GPUSeconds float64
	Rescales   int
}

// JCT returns the job completion time (completion − submission).
func (r JobResult) JCT() float64 { return r.Completion - r.Submit }

// Result aggregates a run.
type Result struct {
	Scheduler  string
	Trace      string
	Jobs       []JobResult
	Samples    []Sample
	Makespan   float64
	Rescales   int
	Migrations int
	// Starved counts jobs left unfinished because the scheduler stopped
	// giving them GPUs with no future events pending.
	Starved int
}

// DeadlineSatisfactoryRatio returns met-deadline jobs over all submitted
// jobs with deadlines — the paper's headline metric. Dropped and unfinished
// jobs count against it.
func (r Result) DeadlineSatisfactoryRatio() float64 {
	total, met := 0, 0
	for _, j := range r.Jobs {
		if math.IsInf(j.Deadline, 1) {
			continue
		}
		total++
		if j.Met {
			met++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(met) / float64(total)
}

// AdmittedCount returns the number of jobs not dropped at admission.
func (r Result) AdmittedCount() int {
	n := 0
	for _, j := range r.Jobs {
		if !j.Dropped {
			n++
		}
	}
	return n
}

// AvgBestEffortJCT averages the completion time of finished best-effort
// jobs. Returns 0 when the trace has none.
func (r Result) AvgBestEffortJCT() float64 {
	sum, n := 0.0, 0
	for _, j := range r.Jobs {
		if j.Class == job.BestEffort && j.Finished {
			sum += j.JCT()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// AvgClusterEfficiency averages Eq. 8 over the timeline, time-weighted.
func (r Result) AvgClusterEfficiency() float64 {
	if len(r.Samples) < 2 {
		return 0
	}
	area, span := 0.0, 0.0
	for i := 1; i < len(r.Samples); i++ {
		dt := r.Samples[i].Time - r.Samples[i-1].Time
		area += r.Samples[i-1].ClusterEfficiency * dt
		span += dt
	}
	if span == 0 {
		return r.Samples[0].ClusterEfficiency
	}
	return area / span
}

// engine carries the run state: the event queue, the scans and the result
// statistics. Everything a decision, a completion or a failure does to the
// cluster and the jobs goes through eng — the same sched.Engine the live
// platform drives.
type engine struct {
	cfg Config
	g   int
	eng sched.Engine
	// tr is Config.Obs's tracer (nil when tracing is off); it opens each
	// job's lifecycle root. Spans carry LSN 0 here: the simulator has no
	// write-ahead journal to correlate against.
	tr *tracing.Tracer

	now     float64
	wake    float64 // scheduler-requested wake-up; 0 = none
	pending []*job.Job
	next    int // index into pending
	active  []*job.Job

	stats     map[string]*JobResult
	res       *Result
	submitted int
	completed int
	dropped   int

	// failEvents are the expanded failure start/end events, time-sorted.
	failEvents []failEvent
	nextFail   int
	downGPUs   int

	// pool fans the per-event scans out across shard goroutines when
	// Config.Workers > 1; nil runs them serially. The serial path keeps its
	// own scratch so both paths share the flag/value-fold code.
	pool        *pool
	doneScratch []bool
	effScratch  []float64
}

// failEvent is a failure transition.
type failEvent struct {
	at     float64
	server int
	down   bool
}

// avail returns the schedulable capacity: total GPUs minus failed servers.
func (e *engine) avail() int { return e.g - e.downGPUs }

// logEvent is the run's one event sink — the simulator's own admissions and
// drops, and everything the engine emits (it is the engine's
// sched.Engine.Emit). The rescale and migration tallies count the engine's
// emissions; then the event goes to Config.Obs when wired.
func (e *engine) logEvent(now float64, kind, jobID string, fields ...tracing.Attr) {
	switch kind {
	case obs.KindRescale:
		e.res.Rescales++
		e.stats[jobID].Rescales++
	case obs.KindMigrate:
		e.res.Migrations++
	}
	e.cfg.Obs.Event(obs.Event{Time: now, Kind: kind, JobID: jobID, Fields: fields})
}

// Run simulates jobs (sorted by submission time) under cfg and returns the
// collected result. The jobs' mutable state is modified in place.
func Run(cfg Config, jobs []*job.Job, traceName string) (Result, error) {
	if cfg.Scheduler == nil {
		return Result{}, fmt.Errorf("sim: no scheduler configured")
	}
	if cfg.MaxSimSec <= 0 {
		cfg.MaxSimSec = 120 * 24 * 3600
	}
	cluster, err := topology.New(cfg.Topology)
	if err != nil {
		return Result{}, err
	}
	pending := append([]*job.Job{}, jobs...)
	sort.Slice(pending, func(i, k int) bool { return pending[i].SubmitTime < pending[k].SubmitTime })

	e := &engine{
		cfg: cfg,
		g:   cluster.TotalGPUs(),
		eng: sched.Engine{
			Cluster:       cluster,
			Sched:         cfg.Scheduler,
			Costs:         throughput.NewEstimator(model.DefaultA100()).CostModel(),
			PlacementFree: cfg.PlacementFree,
			NoOverheads:   cfg.NoOverheads,
			Obs:           cfg.Obs,
		},
		tr:      cfg.Obs.Tracer(),
		pending: pending,
		stats:   make(map[string]*JobResult, len(pending)),
		res:     &Result{Scheduler: cfg.Scheduler.Name(), Trace: traceName},
	}
	e.eng.Emit = e.logEvent
	for _, f := range cfg.Failures {
		if f.Server < 0 || f.Server >= cfg.Topology.Servers {
			return Result{}, fmt.Errorf("sim: failure server %d out of range", f.Server)
		}
		e.failEvents = append(e.failEvents,
			failEvent{at: f.StartSec, server: f.Server, down: true},
			failEvent{at: f.StartSec + f.DurationSec, server: f.Server, down: false},
		)
	}
	sort.Slice(e.failEvents, func(i, k int) bool { return e.failEvents[i].at < e.failEvents[k].at })
	if cfg.Workers > 1 {
		e.pool = newPool(cfg.Workers, e.stats)
		// Reap the shard goroutines on every exit — normal completion,
		// MaxSimSec abort, or a scheduler panic unwinding through run().
		defer e.pool.stop()
	}
	if err := e.run(); err != nil {
		return Result{}, err
	}
	// Emit job results in submission order.
	for _, j := range pending {
		e.res.Jobs = append(e.res.Jobs, *e.stats[j.ID])
	}
	return *e.res, nil
}

func (e *engine) run() error {
	if len(e.pending) == 0 {
		return nil
	}
	e.now = e.pending[0].SubmitTime
	stuck := 0
	for {
		if e.now > e.cfg.MaxSimSec {
			return fmt.Errorf("sim: exceeded MaxSimSec=%g at %d active jobs (scheduler %s)", e.cfg.MaxSimSec, len(e.active), e.eng.Sched.Name())
		}
		tNext, kind := e.nextEvent()
		if math.IsInf(tNext, 1) {
			if len(e.active) == 0 {
				break
			}
			// No pending events but jobs remain: give the scheduler
			// one chance to restart them, then declare starvation.
			if stuck++; stuck > 1 {
				e.res.Starved = len(e.active)
				for _, j := range e.active {
					e.stats[j.ID].Finished = false
				}
				break
			}
			e.wake = e.eng.Reschedule(e.now, e.active, e.avail())
			continue
		}
		stuck = 0
		e.advanceAll(tNext - e.now)
		e.now = tNext

		changed := false
		switch kind {
		case evWake:
			e.wake = 0
			changed = true
		case evCompletion:
			changed = e.completeDone() || changed
		case evArrival:
			changed = e.completeDone() || changed // completions tie-break first
			changed = e.admitArrivals() || changed
		case evFailure:
			changed = e.applyFailures() || changed
		case evSample:
			// fallthrough to sampling below
		}
		// Completions can coincide with any event type.
		if kind != evCompletion && kind != evArrival {
			changed = e.completeDone() || changed
		}
		if changed {
			e.wake = e.eng.Reschedule(e.now, e.active, e.avail())
		}
		e.sample()
	}
	e.res.Makespan = e.now
	return nil
}

type evKind int

const (
	evArrival evKind = iota
	evCompletion
	evWake
	evSample
	evFailure
)

// nextEvent returns the earliest upcoming event time and kind.
func (e *engine) nextEvent() (float64, evKind) {
	t := math.Inf(1)
	kind := evSample
	if e.next < len(e.pending) {
		t, kind = e.pending[e.next].SubmitTime, evArrival
	}
	// Failure transitions matter only while work remains.
	if (e.next < len(e.pending) || len(e.active) > 0) &&
		e.nextFail < len(e.failEvents) && e.failEvents[e.nextFail].at < t {
		t, kind = e.failEvents[e.nextFail].at, evFailure
	}
	if f := e.minFinish(); f < t {
		t, kind = f, evCompletion
	}
	// Wake-ups only matter while jobs are active; otherwise a periodic
	// scheduler would keep the simulation alive forever.
	if e.wake > e.now && e.wake < t && len(e.active) > 0 {
		t, kind = e.wake, evWake
	}
	// Periodic samples only matter while something can still happen.
	if e.cfg.SampleSec > 0 && len(e.res.Samples) > 0 && !math.IsInf(t, 1) {
		s := e.res.Samples[len(e.res.Samples)-1].Time + e.cfg.SampleSec
		if s > e.now && s < t {
			t, kind = s, evSample
		}
	}
	return t, kind
}

// completeDone retires all active jobs that reached their termination
// condition. The done scan fans out across shards; retirement stays on the
// coordinator in canonical admission order, so the emitted stream is
// identical at every worker count. Returns whether anything completed.
func (e *engine) completeDone() bool {
	flags := e.doneFlags()
	kept := e.active[:0]
	for i, j := range e.active {
		if !flags[i] {
			kept = append(kept, j)
			continue
		}
		st := e.stats[j.ID]
		st.Met = e.eng.Retire(e.now, j)
		st.Finished = true
		st.Completion = e.now
		e.completed++
	}
	changed := len(kept) < len(e.active)
	e.active = kept
	return changed
}

// admitArrivals processes every job whose submission time has come.
func (e *engine) admitArrivals() bool {
	changed := false
	for e.next < len(e.pending) && e.pending[e.next].SubmitTime <= e.now+1e-9 {
		j := e.pending[e.next]
		e.next++
		e.submitted++
		st := &JobResult{ID: j.ID, Class: j.Class, Submit: j.SubmitTime, Deadline: j.Deadline}
		e.stats[j.ID] = st
		// Open the lifecycle root before the admission call so the
		// scheduler's plan span lands under it.
		e.tr.StartJob(e.now, j.ID)
		stop := e.cfg.Obs.Timer()
		admitted := e.eng.Sched.Admit(e.now, j, e.active, e.avail())
		e.cfg.Obs.ObserveDecision("admit", stop())
		if admitted {
			j.State = job.Admitted
			e.active = append(e.active, j)
			e.logEvent(e.now, obs.KindAdmit, j.ID,
				tracing.A("verdict", "admit"), tracing.A("class", j.Class))
			changed = true
		} else {
			j.State = job.Dropped
			st.Dropped = true
			e.dropped++
			e.logEvent(e.now, obs.KindDrop, j.ID, tracing.A("verdict", "drop"),
				tracing.A("class", j.Class), tracing.A("reason", "admission control"))
		}
	}
	return changed
}

// applyFailures processes every failure transition due at the current time:
// a failing server evicts its jobs (they checkpoint and will be re-placed at
// the next reschedule) and its GPUs leave the schedulable pool; a recovered
// server returns its capacity.
func (e *engine) applyFailures() bool {
	changed := false
	for e.nextFail < len(e.failEvents) && e.failEvents[e.nextFail].at <= e.now+1e-9 {
		ev := e.failEvents[e.nextFail]
		e.nextFail++
		var err error
		if ev.down {
			e.downGPUs += e.cfg.Topology.GPUsPerServer
			_, err = e.eng.Evict(e.now, ev.server, e.active)
		} else {
			e.downGPUs -= e.cfg.Topology.GPUsPerServer
			err = e.eng.Restore(e.now, ev.server)
		}
		if err != nil {
			panic(err)
		}
		changed = true
	}
	return changed
}

// sample records a timeline point with the current utilization and Eq. 8
// cluster efficiency. The per-job efficiency evaluations fan out across
// shards into an index-aligned scratch; the floating-point fold below runs
// on the coordinator in canonical order, because float addition is not
// associative and a per-shard partial sum would break byte-identity with
// the serial loop.
func (e *engine) sample() {
	effs := e.effValues()
	used := 0
	eff := 0.0
	running := 0
	for i, j := range e.active {
		if j.GPUs <= 0 {
			continue
		}
		running++
		used += j.GPUs
		eff += effs[i]
	}
	e.cfg.Obs.SetUsedGPUs(used)
	e.cfg.Obs.SetClusterEfficiency(eff / float64(e.g))
	e.res.Samples = append(e.res.Samples, Sample{
		Time:              e.now,
		UsedGPUs:          used,
		ClusterEfficiency: eff / float64(e.g),
		Submitted:         e.submitted,
		Admitted:          e.submitted - e.dropped,
		Running:           running,
		Completed:         e.completed,
		Dropped:           e.dropped,
	})
}
