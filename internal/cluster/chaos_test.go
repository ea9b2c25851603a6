package cluster

import (
	"fmt"
	"testing"
	"time"

	"github.com/elasticflow/elasticflow/internal/agent"
	"github.com/elasticflow/elasticflow/internal/faults"
	"github.com/elasticflow/elasticflow/internal/frontdoor"
	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/serverless"
)

// chaosSeed fixes every random source in the chaos runs so the whole
// failure/recovery sequence replays identically.
const chaosSeed = 42

// runChaosScenario is one full chaos run: two jobs training, a seeded crash
// fault killing one agent mid-Step, heartbeat detection, mirrored-checkpoint
// recovery on the survivor, and both jobs driven to completion. It returns
// the fault/recovery slice of the obs event log as "kind jobID" signatures
// for determinism comparison across runs.
func runChaosScenario(t *testing.T) []string {
	t.Helper()
	clk := &fakeClock{t: time.Unix(0, 0)}
	// The third Step RPC (any agent) crashes its receiver: both jobs have
	// advanced and been mirrored by then, so recovery restores real
	// progress rather than a step-0 checkpoint.
	inj := faults.New(chaosSeed, []faults.Rule{
		{Kind: faults.Crash, Op: "Step", At: 3},
	})
	fd, o := newStack(t, clk, frontdoor.Options{}, Options{
		Faults:          inj,
		Controller:      agent.ControllerOptions{Seed: chaosSeed, Sleep: func(time.Duration) {}},
		HeartbeatMisses: 2,
	})

	var ids []string
	for i, req := range []serverless.SubmitRequest{
		{Model: "resnet50", GlobalBatch: 256, Iterations: 1e7, DeadlineSeconds: 1e6},
		{Model: "bert", GlobalBatch: 64, Iterations: 1e7, DeadlineSeconds: 1e6},
	} {
		st, err := submit(fd, o, req, testTask(int64(i+1), 60))
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "dropped" {
			t.Fatalf("job %d dropped", i)
		}
		ids = append(ids, st.ID)
	}

	// Both jobs advance, then a Reconcile mirrors them at step 10.
	if err := o.Step(10); err != nil {
		t.Fatal(err)
	}
	if err := o.Reconcile(); err != nil {
		t.Fatal(err)
	}

	// This Step trips the crash fault on whichever agent receives the
	// third Step RPC. The error is expected — the other job's agent may
	// keep training.
	stepErr := o.Step(10)
	if stepErr == nil {
		t.Fatal("no error from Step across a crashed agent")
	}
	if _, ok := agent.IsAgentDown(stepErr); !ok {
		t.Fatalf("crash surfaced as %v, want an agent-down error in the chain", stepErr)
	}

	// Heartbeats detect the death after K=2 consecutive misses.
	var down []string
	for i := 0; i < 4 && len(down) == 0; i++ {
		down = o.HealthCheck()
	}
	if len(down) != 1 {
		t.Fatalf("health monitor declared %v down, want exactly one agent", down)
	}
	victim := down[0]
	if !inj.Crashed(victim) {
		t.Fatalf("monitor blamed %s, which the injector did not crash", victim)
	}
	if ds := fd.Shard(0).DownServers(); len(ds) != 1 || ds[0] != serverIndex(victim) {
		t.Fatalf("platform down servers %v, want [%d]", ds, serverIndex(victim))
	}

	// Recovery already ran inside the down declaration: every job must be
	// homed on a surviving agent and hold its mirrored progress.
	for _, id := range ids {
		home, ok := o.Home(id)
		if !ok {
			t.Fatalf("%s has no home after recovery", id)
		}
		if home == victim {
			t.Fatalf("%s still homed on dead agent %s", id, victim)
		}
		ts, err := o.TrainingStatus(id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		if ts.Step < 10 {
			t.Fatalf("%s restarted at step %d, mirror at 10 was lost", id, ts.Step)
		}
	}

	// Both deadlines are loose, so both jobs finish on the survivor.
	for i := 0; i < 10; i++ {
		if err := o.Step(20); err != nil {
			t.Fatalf("post-recovery step: %v", err)
		}
	}
	for _, id := range ids {
		ts, err := o.TrainingStatus(id)
		if err != nil {
			t.Fatal(err)
		}
		if !ts.Done {
			t.Fatalf("%s not done after recovery: step %d", id, ts.Step)
		}
	}

	// The fault/recovery event trail must be present and, across runs with
	// the same seed, identical.
	var sigs []string
	counts := map[string]int{}
	for _, ev := range fd.Shard(0).Obs().Bus.Since(0) {
		switch ev.Kind {
		case obs.KindFault, obs.KindAgentDown, obs.KindRestore, obs.KindLost, obs.KindMirror, obs.KindRetry:
			sigs = append(sigs, fmt.Sprintf("%s %s", ev.Kind, ev.JobID))
			counts[ev.Kind]++
		}
	}
	for _, kind := range []string{obs.KindFault, obs.KindAgentDown, obs.KindMirror, obs.KindRestore} {
		if counts[kind] == 0 {
			t.Errorf("no %s event in the chaos run", kind)
		}
	}
	return sigs
}

// TestChaosAgentCrashMidTraining is the end-to-end §4.4 drill: a seeded
// fault schedule kills one agent mid-training, the heartbeat monitor
// detects it, the dead agent's jobs restart on the survivors from mirrored
// checkpoints, and the (feasible) jobs still complete.
func TestChaosAgentCrashMidTraining(t *testing.T) {
	runChaosScenario(t)
}

// TestChaosRunIsDeterministic replays the same seeded schedule twice and
// requires the identical fault/recovery event sequence — the property that
// makes chaos failures debuggable.
func TestChaosRunIsDeterministic(t *testing.T) {
	a := runChaosScenario(t)
	b := runChaosScenario(t)
	if len(a) != len(b) {
		t.Fatalf("event trails differ in length: %d vs %d\n%v\n%v", len(a), len(b), a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestHungAgentDoesNotBlockOrchestrator wedges one agent (every RPC to it
// stalls for minutes) and requires the control plane to keep making
// progress: health checks return within the call deadline, the agent is
// fenced, and the surviving job keeps training.
func TestHungAgentDoesNotBlockOrchestrator(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	inj := faults.New(chaosSeed, []faults.Rule{
		{Kind: faults.Delay, Agent: "server-1", After: 1, Times: 1 << 20, Delay: 10 * time.Minute},
	})
	fd, o := newStack(t, clk, frontdoor.Options{}, Options{
		Faults: inj,
		Controller: agent.ControllerOptions{
			CallTimeout: 50 * time.Millisecond,
			MaxRetries:  -1,
			Sleep:       func(time.Duration) {},
		},
		HeartbeatMisses: 2,
	})

	st, err := submit(fd, o, serverless.SubmitRequest{
		Model: "resnet50", GlobalBatch: 256, Iterations: 1e7, DeadlineSeconds: 1e6,
	}, testTask(9, 80))
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Step(10); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	var down []string
	for i := 0; i < 4 && len(down) == 0; i++ {
		down = o.HealthCheck()
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("health checks against a hung agent took %v — a call blocked past its deadline", elapsed)
	}
	if len(down) != 1 || down[0] != "server-1" {
		t.Fatalf("declared down: %v, want [server-1]", down)
	}

	// The orchestrator still drives training on the survivor.
	before, err := o.TrainingStatus(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Step(10); err != nil {
		t.Fatalf("step after fencing the hung agent: %v", err)
	}
	after, err := o.TrainingStatus(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.Step <= before.Step {
		t.Fatalf("no training progress after fencing: %d → %d", before.Step, after.Step)
	}
}
