package agent

import (
	"errors"
	"net/rpc"
	"sync"
	"testing"
	"time"

	"github.com/elasticflow/elasticflow/internal/elastic"
	"github.com/elasticflow/elasticflow/internal/faults"
	"github.com/elasticflow/elasticflow/internal/obs"
)

// hungCaller blocks every Call until closed — a wedged agent.
type hungCaller struct {
	closed chan struct{}
	once   sync.Once
}

func newHungCaller() *hungCaller { return &hungCaller{closed: make(chan struct{})} }

func (h *hungCaller) Call(method string, args, reply any) error {
	<-h.closed
	return rpc.ErrShutdown
}

func (h *hungCaller) Close() error {
	h.once.Do(func() { close(h.closed) })
	return nil
}

// liveAgent starts one agent and returns its address.
func liveAgent(t *testing.T, name string) (addr string) {
	t.Helper()
	_, addr = startAgent(t, name)
	return addr
}

// startAgent starts one agent and returns it with its address.
func startAgent(t *testing.T, name string) (*Agent, string) {
	t.Helper()
	a := NewAgent(name)
	addr, stop, err := a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	return a, addr
}

// checkpointOn reads a job's live checkpoint straight off the agent, with
// no RPC — the reference the data-plane tests hold moved bytes against.
func checkpointOn(t *testing.T, a *Agent, jobID string) elastic.Checkpoint {
	t.Helper()
	tk, err := a.get(jobID)
	if err != nil {
		t.Fatal(err)
	}
	return tk.trainer.Checkpoint()
}

func noSleep(time.Duration) {}

func TestCallTimeoutOnHungAgent(t *testing.T) {
	// A wedged agent must not block the controller: each attempt observes
	// the per-call deadline and the retry budget bounds total latency.
	dials := 0
	c := NewControllerWith(ControllerOptions{
		CallTimeout: 20 * time.Millisecond,
		MaxRetries:  2,
		Sleep:       noSleep,
		Dial: func(name, addr string) (faults.Caller, error) {
			dials++
			return newHungCaller(), nil
		},
	})
	defer c.Close()
	if err := c.Connect("H", "fake"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := c.Launch("j", testSpec(), "H", 1)
	elapsed := time.Since(start)
	agent, down := IsAgentDown(err)
	if !down || agent != "H" {
		t.Fatalf("want AgentDownError{H}, got %v", err)
	}
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("want ErrCallTimeout in chain, got %v", err)
	}
	if elapsed > time.Second {
		t.Fatalf("hung agent blocked the controller for %v", elapsed)
	}
	if dials != 3 {
		t.Fatalf("dials = %d, want 3 (initial + one redial per retry)", dials)
	}
}

func TestRetryRecoversFromTransientFault(t *testing.T) {
	// An injected transport error on the first attempt is retried after a
	// redial; the call succeeds and the retry is observable.
	o := obs.NewDefault()
	inj := faults.New(1, []faults.Rule{{Kind: faults.Error, Op: "Launch", At: 1}})
	c := NewControllerWith(ControllerOptions{
		Dial:  inj.WrapDial(DefaultDial),
		Sleep: noSleep,
		Obs:   o,
	})
	defer c.Close()
	if err := c.Connect("A", liveAgent(t, "A")); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Launch("j", testSpec(), "A", 2)
	if err != nil {
		t.Fatalf("launch did not survive a transient fault: %v", err)
	}
	if rep.Workers != 2 {
		t.Fatalf("reply %+v", rep)
	}
	retries := 0
	for _, ev := range o.Bus.Since(0) {
		if ev.Kind == obs.KindRetry {
			retries++
		}
	}
	if retries != 1 {
		t.Fatalf("observed %d rpc-retry events, want 1", retries)
	}
}

func TestServerErrorsAreFatalNotRetried(t *testing.T) {
	// Errors the agent returned (it processed the request) must surface
	// immediately — retrying would re-execute, not recover.
	o := obs.NewDefault()
	c := NewControllerWith(ControllerOptions{Sleep: noSleep, Obs: o})
	defer c.Close()
	if err := c.Connect("A", liveAgent(t, "A")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Launch("j", testSpec(), "A", 1); err != nil {
		t.Fatal(err)
	}
	_, err := c.Launch("j", testSpec(), "A", 1) // duplicate → agent refuses
	if err == nil {
		t.Fatal("duplicate launch succeeded")
	}
	if _, down := IsAgentDown(err); down {
		t.Fatalf("application error misclassified as agent-down: %v", err)
	}
	for _, ev := range o.Bus.Since(0) {
		if ev.Kind == obs.KindRetry {
			t.Fatalf("server error was retried: %+v", ev)
		}
	}
}

func TestCrashedAgentFailsFastAsDown(t *testing.T) {
	inj := faults.New(1, []faults.Rule{{Kind: faults.Crash, Agent: "A", At: 2}})
	c := NewControllerWith(ControllerOptions{
		Dial:  inj.WrapDial(DefaultDial),
		Sleep: noSleep,
	})
	defer c.Close()
	if err := c.Connect("A", liveAgent(t, "A")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Launch("j", testSpec(), "A", 1); err != nil {
		t.Fatal(err)
	}
	_, err := c.Step("j", 1) // second call: crash fires
	if agent, down := IsAgentDown(err); !down || agent != "A" {
		t.Fatalf("want AgentDownError{A}, got %v", err)
	}
	// Later calls fail fast too (redial refused).
	if _, err := c.Step("j", 1); err == nil {
		t.Fatal("call to crashed agent succeeded")
	}
}

func TestDisconnectAndReconnect(t *testing.T) {
	addr := liveAgent(t, "A")
	c := NewControllerWith(ControllerOptions{Sleep: noSleep})
	defer c.Close()
	if err := c.Connect("A", addr); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Launch("j", testSpec(), "A", 1); err != nil {
		t.Fatal(err)
	}
	c.Disconnect("A")
	_, err := c.Step("j", 1)
	if _, down := IsAgentDown(err); !down {
		t.Fatalf("call to disconnected agent: want AgentDownError, got %v", err)
	}
	if got := c.Agents(); len(got) != 0 {
		t.Fatalf("Agents after disconnect = %v", got)
	}
	// The agent process never died; reconnecting resumes control of its
	// still-running task.
	if err := c.Connect("A", addr); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step("j", 5); err != nil {
		t.Fatalf("step after reconnect: %v", err)
	}
}

func TestPing(t *testing.T) {
	c := NewControllerWith(ControllerOptions{Sleep: noSleep})
	defer c.Close()
	if err := c.Connect("A", liveAgent(t, "A")); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Ping("A")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Agent != "A" || rep.Jobs != 0 {
		t.Fatalf("ping reply %+v", rep)
	}
	if _, err := c.Launch("j", testSpec(), "A", 1); err != nil {
		t.Fatal(err)
	}
	if rep, err = c.Ping("A"); err != nil || rep.Jobs != 1 {
		t.Fatalf("ping after launch: %+v %v", rep, err)
	}
	if _, err := c.Ping("ghost"); err == nil {
		t.Fatal("ping of unknown agent succeeded")
	}
}

func TestSnapshotLeavesJobRunning(t *testing.T) {
	c := NewControllerWith(ControllerOptions{Sleep: noSleep})
	defer c.Close()
	if err := c.Connect("A", liveAgent(t, "A")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Launch("j", testSpec(), "A", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step("j", 10); err != nil {
		t.Fatal(err)
	}
	ck, _, err := c.FetchCheckpoint("j", false)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Step != 10 || len(ck.Params) == 0 {
		t.Fatalf("snapshot %+v want step 10 with params", ck)
	}
	// The job is still live and steppable — a fetch is a read, not a Stop.
	st, err := c.Step("j", 10)
	if err != nil {
		t.Fatal(err)
	}
	if st.Step != 20 {
		t.Fatalf("step after snapshot = %d, want 20", st.Step)
	}
}

func TestMigrateRollsBackOnTargetRefusal(t *testing.T) {
	addrA, addrB := liveAgent(t, "A"), liveAgent(t, "B")
	c := NewControllerWith(ControllerOptions{Sleep: noSleep})
	defer c.Close()
	if err := c.Connect("A", addrA); err != nil {
		t.Fatal(err)
	}
	if err := c.Connect("B", addrB); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Launch("j", testSpec(), "A", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step("j", 10); err != nil {
		t.Fatal(err)
	}
	// Plant a conflicting task named "j" directly on B so B refuses the
	// migration's launch.
	c2 := NewControllerWith(ControllerOptions{Sleep: noSleep})
	defer c2.Close()
	if err := c2.Connect("B", addrB); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Launch("j", testSpec(), "B", 1); err != nil {
		t.Fatal(err)
	}

	_, err := c.Migrate("j", "B", 2)
	if err == nil {
		t.Fatal("migration onto a conflicting task succeeded")
	}
	if home, ok := c.Home("j"); !ok || home != "A" {
		t.Fatalf("home after failed migration = %q, want rollback to A", home)
	}
	// The rolled-back job resumes from its pre-migration checkpoint.
	st, err := c.Step("j", 5)
	if err != nil {
		t.Fatalf("step after rollback: %v", err)
	}
	if st.Step != 15 {
		t.Fatalf("step after rollback = %d, want 15", st.Step)
	}
}

func TestBackoffGrowsWithJitter(t *testing.T) {
	var sleeps []time.Duration
	inj := faults.New(1, []faults.Rule{{Kind: faults.Error, Op: "Launch", After: 1}})
	c := NewControllerWith(ControllerOptions{
		MaxRetries:   3,
		RetryBackoff: 10 * time.Millisecond,
		MaxBackoff:   25 * time.Millisecond,
		Seed:         7,
		Dial:         inj.WrapDial(DefaultDial),
		Sleep:        func(d time.Duration) { sleeps = append(sleeps, d) },
	})
	defer c.Close()
	if err := c.Connect("A", liveAgent(t, "A")); err != nil {
		t.Fatal(err)
	}
	_, err := c.Launch("j", testSpec(), "A", 1)
	if _, down := IsAgentDown(err); !down {
		t.Fatalf("want AgentDownError after exhausted retries, got %v", err)
	}
	if len(sleeps) != 3 {
		t.Fatalf("slept %d times, want 3", len(sleeps))
	}
	// Base schedule 10ms, 20ms, 25ms (capped); jitter keeps each attempt
	// within [0.5, 1.0]× its base.
	bases := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 25 * time.Millisecond}
	for i, d := range sleeps {
		if d < bases[i]/2 || d > bases[i] {
			t.Fatalf("sleep %d = %v, want within [%v, %v]", i, d, bases[i]/2, bases[i])
		}
	}
}

func TestDropJobs(t *testing.T) {
	c := NewControllerWith(ControllerOptions{Sleep: noSleep})
	defer c.Close()
	if err := c.Connect("A", liveAgent(t, "A")); err != nil {
		t.Fatal(err)
	}
	if err := c.Connect("B", liveAgent(t, "B")); err != nil {
		t.Fatal(err)
	}
	for _, j := range []struct{ id, home string }{{"j1", "A"}, {"j2", "B"}, {"j3", "A"}} {
		if _, err := c.Launch(j.id, testSpec(), j.home, 1); err != nil {
			t.Fatal(err)
		}
	}
	dropped := c.DropJobs("A")
	if len(dropped) != 2 || dropped[0] != "j1" || dropped[1] != "j3" {
		t.Fatalf("DropJobs(A) = %v, want [j1 j3]", dropped)
	}
	if _, ok := c.Home("j1"); ok {
		t.Fatal("dropped job still has a home")
	}
	if home, _ := c.Home("j2"); home != "B" {
		t.Fatal("unrelated job lost its home")
	}
}
