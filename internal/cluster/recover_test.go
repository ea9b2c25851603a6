package cluster

import (
	"path/filepath"
	"testing"
	"time"

	"github.com/elasticflow/elasticflow/internal/agent"
	"github.com/elasticflow/elasticflow/internal/frontdoor"
	"github.com/elasticflow/elasticflow/internal/serverless"
	"github.com/elasticflow/elasticflow/internal/store"
)

// newDurableOrchestrator builds the stack journaling into dir.
func newDurableOrchestrator(t *testing.T, dir string, clk *fakeClock) (*frontdoor.FrontDoor, *Orchestrator) {
	t.Helper()
	return newStack(t, clk, frontdoor.Options{StateDir: dir}, Options{})
}

// reopenShard runs the store's recovery scan over the shard's journal the
// way a restarted controller finds it, and closes it again: the front door
// recovers the shard from the same directory.
func reopenShard(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(filepath.Join(dir, "shard-0"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestControllerCrashAdoptsLiveTrainers: the controller process dies but the
// agents (separate processes in the real system) keep training. The
// recovered orchestrator must re-learn the routes and worker counts from the
// live agents — no restart, no lost steps — and keep every journaled
// admission with its original deadline.
func TestControllerCrashAdoptsLiveTrainers(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Unix(0, 0)}
	fd1, o1 := newDurableOrchestrator(t, dir, clk)

	st1, err := submit(fd1, o1, serverless.SubmitRequest{
		Model: "resnet50", GlobalBatch: 64, Iterations: 1e7, DeadlineSeconds: 1e6,
	}, testTask(7, 500))
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Minute)
	st2, err := submit(fd1, o1, serverless.SubmitRequest{
		Model: "bert", GlobalBatch: 64, Iterations: 1e7, DeadlineSeconds: 1e6,
	}, testTask(8, 500))
	if err != nil {
		t.Fatal(err)
	}
	if err := o1.Step(30); err != nil {
		t.Fatal(err)
	}
	addrs := o1.AgentAddrs()
	tasks := map[string]agent.TaskSpec{st1.ID: testTask(7, 500), st2.ID: testTask(8, 500)}
	preDeadline1, preDeadline2 := st1.Deadline, st2.Deadline

	// Crash the controller: its connections die, its routing tables and the
	// platform's memory are gone; the agents and the state directory remain.
	o1.ctrl.Close()

	reopened := reopenShard(t, dir)
	if n := reopened.TornTails(); n != 0 {
		t.Fatalf("clean crash produced %d torn tails", n)
	}
	fd2 := newFrontDoor(t, clk, frontdoor.Options{StateDir: dir})
	o2, vanished := NewRecovered(fd2.Shard(0), Options{}, addrs, tasks)
	t.Cleanup(o2.Close)
	if len(vanished) != 0 {
		t.Fatalf("all agents alive, yet vanished=%v", vanished)
	}

	for _, id := range []string{st1.ID, st2.ID} {
		if _, ok := o2.Home(id); !ok {
			t.Fatalf("job %s not adopted onto any agent", id)
		}
		ts, err := o2.TrainingStatus(id)
		if err != nil {
			t.Fatal(err)
		}
		if ts.Step != 30 {
			t.Errorf("job %s at step %d after adoption, want 30 (trainer restarted?)", id, ts.Step)
		}
		o2.mu.Lock()
		_, mirrored := o2.mirrors[id]
		o2.mu.Unlock()
		if !mirrored {
			t.Errorf("job %s has no post-adoption checkpoint mirror", id)
		}
	}

	// The journaled admissions keep their deadlines across recovery.
	for id, want := range map[string]float64{st1.ID: preDeadline1, st2.ID: preDeadline2} {
		got, err := fd2.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.State == "dropped" {
			t.Fatalf("recovery revoked admitted job %s", id)
		}
		if got.Deadline != want {
			t.Errorf("job %s deadline %v after recovery, want %v", id, got.Deadline, want)
		}
	}

	// The recovered stack keeps training.
	if err := o2.Step(20); err != nil {
		t.Fatal(err)
	}
	ts, err := o2.TrainingStatus(st1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Step != 50 {
		t.Errorf("step %d after post-recovery training, want 50", ts.Step)
	}
}

// TestRecoveryRoutesVanishedAgentThroughNodeDown: an agent that died during
// the controller's downtime fails the recovery ping sweep and must go
// through the same NodeDown path a heartbeat trip takes — capacity out of
// the pool, jobs relaunched on the survivors — while admitted jobs keep
// their deadlines (possibly flagged at-risk, never revoked).
func TestRecoveryRoutesVanishedAgentThroughNodeDown(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Unix(0, 0)}
	fd1, o1 := newDurableOrchestrator(t, dir, clk)

	st1, err := submit(fd1, o1, serverless.SubmitRequest{
		Model: "resnet50", GlobalBatch: 64, Iterations: 1e7, DeadlineSeconds: 1e6,
	}, testTask(7, 500))
	if err != nil {
		t.Fatal(err)
	}
	if err := o1.Step(10); err != nil {
		t.Fatal(err)
	}
	addrs := o1.AgentAddrs()

	// Controller crashes; during the downtime agent server-1 dies too.
	o1.ctrl.Close()
	o1.listenStops[agentName(1)]()

	fd2 := newFrontDoor(t, clk, frontdoor.Options{StateDir: dir})
	o2, vanished := NewRecovered(fd2.Shard(0), Options{}, addrs, map[string]agent.TaskSpec{st1.ID: testTask(7, 500)})
	t.Cleanup(o2.Close)
	if len(vanished) != 1 || vanished[0] != agentName(1) {
		t.Fatalf("vanished = %v, want [%s]", vanished, agentName(1))
	}
	downs := fd2.Shard(0).DownServers()
	if len(downs) != 1 || downs[0] != 1 {
		t.Fatalf("down servers = %v after vanish, want [1]", downs)
	}

	// The job must end up on the surviving agent, admitted with its
	// original deadline, and trainable.
	home, ok := o2.Home(st1.ID)
	if !ok {
		t.Fatalf("job %s not running anywhere after recovery", st1.ID)
	}
	if home != agentName(0) {
		t.Errorf("job %s on %s, want the surviving %s", st1.ID, home, agentName(0))
	}
	got, err := fd2.Get(st1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State == "dropped" {
		t.Fatal("vanished-agent recovery revoked the admission")
	}
	if err := o2.Step(5); err != nil {
		t.Fatal(err)
	}
}
