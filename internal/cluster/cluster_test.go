package cluster

import (
	"math"
	"sync"
	"testing"
	"time"

	"github.com/elasticflow/elasticflow/internal/agent"
	"github.com/elasticflow/elasticflow/internal/elastic"
	"github.com/elasticflow/elasticflow/internal/frontdoor"
	"github.com/elasticflow/elasticflow/internal/serverless"
	"github.com/elasticflow/elasticflow/internal/topology"
)

// fakeClock is a hand-advanced clock, safe to read from the front door's
// and the HTTP server's goroutines.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newStack builds a one-shard front door of 2 servers × 8 GPUs on clk —
// with fdOpts' tenants and state directory — and an orchestrator over its
// shard. Both are torn down when the test ends.
func newStack(t *testing.T, clk *fakeClock, fdOpts frontdoor.Options, opts Options) (*frontdoor.FrontDoor, *Orchestrator) {
	t.Helper()
	fd := newFrontDoor(t, clk, fdOpts)
	o, err := New(fd.Shard(0), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	return fd, o
}

// newFrontDoor builds the one-shard front door of newStack alone.
func newFrontDoor(t *testing.T, clk *fakeClock, fdOpts frontdoor.Options) *frontdoor.FrontDoor {
	t.Helper()
	fdOpts.ShardTopology = topology.Config{Servers: 2, GPUsPerServer: 8}
	fdOpts.Clock = clk.now
	fd, err := frontdoor.New(fdOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fd.Shutdown() })
	return fd
}

// submit sends req through the front door and registers task for the job
// it admits — the one way a job reaches the orchestrator.
func submit(fd *frontdoor.FrontDoor, o *Orchestrator, req serverless.SubmitRequest, task agent.TaskSpec) (serverless.JobStatus, error) {
	st, err := fd.Submit(req)
	if err != nil || st.State == "dropped" {
		return st, err
	}
	return st, o.Register(st.ID, task)
}

func newOrchestrator(t *testing.T) (*frontdoor.FrontDoor, *Orchestrator, *fakeClock) {
	t.Helper()
	clk := &fakeClock{t: time.Unix(0, 0)}
	fd, o := newStack(t, clk, frontdoor.Options{}, Options{})
	return fd, o, clk
}

func testTask(seed int64, iters int) agent.TaskSpec {
	return agent.TaskSpec{
		Dim: 4, DataSeed: seed, DataN: 256, Noise: 0.01,
		GlobalBatch: 64, LearningRate: 0.1, InitSeed: seed,
		TotalIters: iters,
	}
}

// TestFullStackLifecycle runs the complete product: submission through the
// serverless interface, admission, placement, launch on an RPC agent, real
// training steps, elastic rescale when contention arrives and departs, and
// a final trajectory check against an undisturbed run.
func TestFullStackLifecycle(t *testing.T) {
	fd, o, clk := newOrchestrator(t)

	task := testTask(7, 120)
	task.GlobalBatch = 256 // scales to all 16 GPUs when alone
	st, err := submit(fd, o, serverless.SubmitRequest{
		Model: "resnet50", GlobalBatch: 256, Iterations: 1e7, DeadlineSeconds: 1e6,
	}, task)
	if err != nil {
		t.Fatal(err)
	}
	if st.State == "dropped" {
		t.Fatal("job dropped")
	}
	home1, ok := o.Home(st.ID)
	if !ok {
		t.Fatal("job not launched on any agent")
	}
	ts, err := o.TrainingStatus(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Workers != st.GPUs {
		t.Errorf("agent runs %d workers, platform says %d", ts.Workers, st.GPUs)
	}
	initialWorkers := ts.Workers

	if err := o.Step(40); err != nil {
		t.Fatal(err)
	}

	// A second job arrives: the first must shrink (elastic scaling), and
	// the agent-side trainer must follow.
	clk.advance(time.Minute)
	st2, err := submit(fd, o, serverless.SubmitRequest{
		Model: "bert", GlobalBatch: 64, Iterations: 1e7, DeadlineSeconds: 1e6,
	}, testTask(8, 120))
	if err != nil {
		t.Fatal(err)
	}
	if st2.State == "dropped" {
		t.Fatal("second job dropped")
	}
	ts, err = o.TrainingStatus(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Workers >= initialWorkers {
		t.Errorf("first job still at %d workers (was %d); expected a shrink", ts.Workers, initialWorkers)
	}
	if ts.Step != 40 {
		t.Errorf("rescale lost progress: step=%d want 40", ts.Step)
	}
	if err := o.Step(40); err != nil {
		t.Fatal(err)
	}

	// Cancel the second job; reconciliation regrows the first.
	if err := fd.Cancel(st2.ID); err != nil {
		t.Fatal(err)
	}
	if err := o.Reconcile(); err != nil {
		t.Fatal(err)
	}
	ts, err = o.TrainingStatus(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Workers < initialWorkers {
		t.Errorf("first job not regrown: %d workers want ≥ %d", ts.Workers, initialWorkers)
	}
	if err := o.Step(40); err != nil {
		t.Fatal(err)
	}

	// The full journey — launch, shrink, regrow — must match an
	// undisturbed fixed-worker run exactly.
	final, err := o.TrainingStatus(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Step != 120 || !final.Done {
		t.Fatalf("final step %d done=%v want 120/true", final.Step, final.Done)
	}
	ref, err := refParams(task)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := o.ctrl.Stop(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if math.Abs(ref[i]-ck.Params[i]) > 1e-8 {
			t.Fatalf("param %d diverged across the full stack", i)
		}
	}
	_ = home1
}

// refParams trains the task undisturbed with 2 workers.
func refParams(spec agent.TaskSpec) ([]float64, error) {
	data, _ := elastic.SyntheticRegression(spec.DataSeed, spec.DataN, spec.Dim, spec.Noise)
	tr, err := elastic.New(elastic.Config{
		Model:        elastic.LinearRegression{Dim: spec.Dim},
		Data:         data,
		GlobalBatch:  spec.GlobalBatch,
		LearningRate: spec.LearningRate,
		Workers:      2,
		Seed:         spec.InitSeed,
	})
	if err != nil {
		return nil, err
	}
	if err := tr.Steps(spec.TotalIters); err != nil {
		return nil, err
	}
	return tr.Params(), nil
}

// TestSuspendResumeAcrossReconciliation: a job squeezed to zero GPUs parks
// its checkpoint and resumes from it when capacity returns.
func TestSuspendResumeAcrossReconciliation(t *testing.T) {
	fd, o, _ := newOrchestrator(t)

	st, err := submit(fd, o, serverless.SubmitRequest{
		Model: "resnet50", GlobalBatch: 64, Iterations: 1e7, DeadlineSeconds: 1e6,
	}, testTask(3, 200))
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Step(25); err != nil {
		t.Fatal(err)
	}
	// An admitted SLO job's minimum satisfactory share is guaranteed, so
	// normal contention cannot squeeze it to zero GPUs; park the job
	// directly to exercise the suspend/resume path the reconciler takes
	// for best-effort jobs under pressure.
	o.mu.Lock()
	ck, err := o.ctrl.Stop(st.ID)
	if err != nil {
		o.mu.Unlock()
		t.Fatal(err)
	}
	o.parked[st.ID] = ck
	o.workers[st.ID] = 0
	delete(o.homes, st.ID)
	o.mu.Unlock()

	// Reconcile resumes from the parked checkpoint.
	if err := o.Reconcile(); err != nil {
		t.Fatal(err)
	}
	ts, err := o.TrainingStatus(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Step != 25 {
		t.Errorf("resumed at step %d want 25 (checkpoint lost?)", ts.Step)
	}
}
