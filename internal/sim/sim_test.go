package sim

import (
	"math"
	"testing"

	"github.com/elasticflow/elasticflow/internal/core"
	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/sched"
	"github.com/elasticflow/elasticflow/internal/throughput"
	"github.com/elasticflow/elasticflow/internal/topology"
)

// fixedScheduler always grants every job a fixed count, FIFO.
type fixedScheduler struct{ g int }

func (fixedScheduler) Name() string                                  { return "fixed" }
func (fixedScheduler) Admit(float64, *job.Job, []*job.Job, int) bool { return true }
func (f fixedScheduler) Schedule(now float64, active []*job.Job, g int) sched.Decision {
	alloc := make(map[string]int)
	free := g
	for _, j := range active {
		if f.g <= free {
			alloc[j.ID] = f.g
			free -= f.g
		}
	}
	return sched.Decision{Alloc: alloc}
}

func simpleJob(id string, iters, submit, deadline float64) *job.Job {
	return &job.Job{
		ID:          id,
		GlobalBatch: 8,
		TotalIters:  iters,
		SubmitTime:  submit,
		Deadline:    deadline,
		Class:       job.SLO,
		Curve:       throughput.MustCurve(map[int]float64{1: 1, 2: 1.5, 4: 2}),
		MinGPUs:     1,
		MaxGPUs:     4,
	}
}

func smallTopology() topology.Config { return topology.Config{Servers: 1, GPUsPerServer: 4} }

func TestRunSingleJobCompletes(t *testing.T) {
	j := simpleJob("a", 100, 0, 1000)
	res, err := Run(Config{Topology: smallTopology(), Scheduler: fixedScheduler{1}}, []*job.Job{j}, "t")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 1 || !res.Jobs[0].Finished {
		t.Fatalf("job did not finish: %+v", res.Jobs)
	}
	if got := res.Jobs[0].Completion; math.Abs(got-100) > 1e-6 {
		t.Errorf("completion = %v want 100 (100 iters at 1/s)", got)
	}
	if !res.Jobs[0].Met {
		t.Error("deadline not met")
	}
	if res.DeadlineSatisfactoryRatio() != 1 {
		t.Errorf("DSR = %v want 1", res.DeadlineSatisfactoryRatio())
	}
	if math.Abs(res.Jobs[0].GPUSeconds-100) > 1e-6 {
		t.Errorf("GPU seconds = %v want 100", res.Jobs[0].GPUSeconds)
	}
}

func TestRunLateJobMissesDeadline(t *testing.T) {
	j := simpleJob("a", 100, 0, 50)
	res, err := Run(Config{Topology: smallTopology(), Scheduler: fixedScheduler{1}}, []*job.Job{j}, "t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Met {
		t.Error("late job counted as met")
	}
	if res.DeadlineSatisfactoryRatio() != 0 {
		t.Errorf("DSR = %v want 0", res.DeadlineSatisfactoryRatio())
	}
}

func TestRunQueueing(t *testing.T) {
	// Four 1-GPU slots; the fixed scheduler grants 4 GPUs per job, so two
	// jobs serialize.
	a := simpleJob("a", 100, 0, 1000)
	b := simpleJob("b", 100, 0, 1000)
	res, err := Run(Config{Topology: smallTopology(), Scheduler: fixedScheduler{4}}, []*job.Job{a, b}, "t")
	if err != nil {
		t.Fatal(err)
	}
	// Each takes 100/2 = 50s at 4 GPUs; serialized: 50 then 100.
	if math.Abs(res.Makespan-100) > 1e-6 {
		t.Errorf("makespan = %v want 100", res.Makespan)
	}
	var first, second JobResult
	for _, jr := range res.Jobs {
		if jr.Completion < 60 {
			first = jr
		} else {
			second = jr
		}
	}
	if first.ID == "" || second.ID == "" {
		t.Fatalf("expected serialized completions, got %+v", res.Jobs)
	}
}

func TestRunChargesRescaleOverhead(t *testing.T) {
	j := simpleJob("a", 100, 0, 1e6)
	j.RescaleOverheadSec = 10
	// ElasticFlow will expand the job (1→2→4) as spare GPUs exist; the
	// expansions freeze the job.
	ef := core.New(core.Options{SlotSec: 1, PowerOfTwo: true, SafetyRescales: -1})
	res, err := Run(Config{Topology: smallTopology(), Scheduler: ef}, []*job.Job{j}, "t")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Jobs[0].Finished {
		t.Fatal("job did not finish")
	}
	// At 4 GPUs throughput 2: ideal 50s. No overhead on first start.
	if res.Jobs[0].Completion < 50-1e-9 {
		t.Errorf("completion %v faster than physically possible", res.Jobs[0].Completion)
	}
	res2, err := Run(Config{Topology: smallTopology(), Scheduler: ef, NoOverheads: true}, []*job.Job{simpleJob("a", 100, 0, 1e6)}, "t")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Jobs[0].Completion > res.Jobs[0].Completion+1e-9 {
		t.Errorf("NoOverheads run slower (%v) than overhead run (%v)", res2.Jobs[0].Completion, res.Jobs[0].Completion)
	}
}

func TestRunAdmissionDropsRecorded(t *testing.T) {
	ef := core.New(core.Options{SlotSec: 1, PowerOfTwo: true, SafetyRescales: -1})
	// One job saturates the 4-GPU cluster through its deadline; the
	// second identical job must be dropped.
	a := simpleJob("a", 200, 0, 100) // needs 4 GPUs the whole time (tput 2)
	b := simpleJob("b", 200, 0, 100)
	res, err := Run(Config{Topology: smallTopology(), Scheduler: ef}, []*job.Job{a, b}, "t")
	if err != nil {
		t.Fatal(err)
	}
	drops := 0
	for _, jr := range res.Jobs {
		if jr.Dropped {
			drops++
		}
	}
	if drops != 1 {
		t.Errorf("drops = %d want 1 (admission control)", drops)
	}
	if res.AdmittedCount() != 1 {
		t.Errorf("admitted = %d want 1", res.AdmittedCount())
	}
}

func TestRunBestEffortJCT(t *testing.T) {
	be := simpleJob("be", 100, 0, 0)
	be.Class = job.BestEffort
	be.Deadline = math.Inf(1)
	ef := core.New(core.Options{SlotSec: 1, PowerOfTwo: true, SafetyRescales: -1})
	res, err := Run(Config{Topology: smallTopology(), Scheduler: ef}, []*job.Job{be}, "t")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Jobs[0].Finished {
		t.Fatal("best-effort job did not finish")
	}
	if res.AvgBestEffortJCT() <= 0 {
		t.Error("no best-effort JCT recorded")
	}
	// DSR has no jobs with deadlines.
	if res.DeadlineSatisfactoryRatio() != 0 {
		t.Errorf("DSR with only best-effort jobs = %v want 0", res.DeadlineSatisfactoryRatio())
	}
}

func TestRunTimelineSamples(t *testing.T) {
	jobs := []*job.Job{simpleJob("a", 500, 0, 1e6)}
	res, err := Run(Config{Topology: smallTopology(), Scheduler: fixedScheduler{1}, SampleSec: 50}, jobs, "t")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) < 5 {
		t.Fatalf("expected periodic samples, got %d", len(res.Samples))
	}
	for _, s := range res.Samples[:len(res.Samples)-1] {
		if s.UsedGPUs != 1 {
			t.Errorf("sample at %v: used=%d want 1", s.Time, s.UsedGPUs)
		}
		// One job on 1 GPU out of 4: efficiency 0.25 (Eq. 8).
		if math.Abs(s.ClusterEfficiency-0.25) > 1e-9 {
			t.Errorf("sample at %v: CE=%v want 0.25", s.Time, s.ClusterEfficiency)
		}
	}
}

func TestRunEmptyTrace(t *testing.T) {
	res, err := Run(Config{Topology: smallTopology(), Scheduler: fixedScheduler{1}}, nil, "t")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 0 || res.Makespan != 0 {
		t.Errorf("unexpected result for empty trace: %+v", res)
	}
}

func TestRunNoScheduler(t *testing.T) {
	if _, err := Run(Config{Topology: smallTopology()}, nil, "t"); err == nil {
		t.Error("missing scheduler accepted")
	}
}

// starver never allocates; the simulator must terminate and report
// starvation rather than loop.
type starver struct{}

func (starver) Name() string                                  { return "starver" }
func (starver) Admit(float64, *job.Job, []*job.Job, int) bool { return true }
func (starver) Schedule(float64, []*job.Job, int) sched.Decision {
	return sched.Decision{Alloc: map[string]int{}}
}

func TestRunStarvationDetected(t *testing.T) {
	res, err := Run(Config{Topology: smallTopology(), Scheduler: starver{}}, []*job.Job{simpleJob("a", 100, 0, 100)}, "t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Starved != 1 {
		t.Errorf("Starved = %d want 1", res.Starved)
	}
	if res.Jobs[0].Finished {
		t.Error("starved job reported finished")
	}
}

// TestElasticFlowGuaranteeHolds: every job ElasticFlow admits meets its
// deadline — the paper's performance guarantee — on a deterministic workload.
func TestElasticFlowGuaranteeHolds(t *testing.T) {
	ef := core.New(core.Options{SlotSec: 1, PowerOfTwo: true})
	var jobs []*job.Job
	for i := 0; i < 8; i++ {
		j := simpleJob(string(rune('a'+i)), float64(50+20*i), float64(10*i), float64(200+40*i))
		j.RescaleOverheadSec = 1
		jobs = append(jobs, j)
	}
	res, err := Run(Config{Topology: smallTopology(), Scheduler: ef}, jobs, "t")
	if err != nil {
		t.Fatal(err)
	}
	for _, jr := range res.Jobs {
		if !jr.Dropped && !jr.Met {
			t.Errorf("admitted job %s missed its deadline (completion %.1f, deadline %.1f)", jr.ID, jr.Completion, jr.Deadline)
		}
	}
}

func TestEventLog(t *testing.T) {
	a := simpleJob("a", 100, 0, 1000)
	o := obs.New(obs.Options{RingSize: 1 << 20})
	if _, err := Run(Config{Topology: smallTopology(), Scheduler: fixedScheduler{1}, Obs: o}, []*job.Job{a}, "t"); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	prev := -1.0
	for _, ev := range o.Bus.Since(0) {
		kinds[ev.Kind]++
		if ev.Time < prev {
			t.Errorf("event log out of order at %v", ev.Time)
		}
		prev = ev.Time
	}
	if kinds["admit"] != 1 || kinds["complete"] != 1 {
		t.Errorf("event kinds = %v want one admit and one complete", kinds)
	}
}
