package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/elasticflow/elasticflow/internal/agent"
	"github.com/elasticflow/elasticflow/internal/frontdoor"
	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/serverless"
)

// TestAgentUpRejoinsFencedAgent is the full round trip of a lost agent: it
// crashes, heartbeats fence it and take its server out of the pool, it
// restarts at a new address, and AgentUp brings it back — its GPUs return
// to /v1/cluster, an agent-up event is emitted, and the next reconciliation
// places a job on it again.
func TestAgentUpRejoinsFencedAgent(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	fd, o := newStack(t, clk, frontdoor.Options{}, Options{
		Controller:      agent.ControllerOptions{Sleep: func(time.Duration) {}},
		HeartbeatMisses: 2,
	})
	shard := fd.Shard(0)
	cluster := func() serverless.ClusterStatus {
		t.Helper()
		rec := httptest.NewRecorder()
		serverless.Handler(shard).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/cluster", nil))
		var cs serverless.ClusterStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &cs); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("GET /v1/cluster: status %d, %v", rec.Code, err)
		}
		return cs
	}
	before := cluster()

	// The victim process dies: its listener closes and the controller's
	// connection to it is cut, so every ping misses.
	victim := agentName(1)
	o.listenStops[victim]()
	o.ctrl.Disconnect(victim)
	var down []string
	for i := 0; i < 4 && len(down) == 0; i++ {
		down = o.HealthCheck()
	}
	if len(down) != 1 || down[0] != victim {
		t.Fatalf("health monitor declared %v down, want [%s]", down, victim)
	}
	if cs := cluster(); cs.DownServers != 1 || cs.FreeGPUs != before.FreeGPUs-8 {
		t.Fatalf("/v1/cluster while fenced: %+v, want 1 down server and %d free GPUs", cs, before.FreeGPUs-8)
	}

	// It restarts at a new address and rejoins.
	a := agent.NewAgent(victim)
	addr, stop, err := a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	if err := o.AgentUp(victim, addr); err != nil {
		t.Fatal(err)
	}
	if cs := cluster(); cs.DownServers != 0 || cs.FreeGPUs != before.FreeGPUs {
		t.Fatalf("/v1/cluster after AgentUp: %+v, want no down server and %d free GPUs", cs, before.FreeGPUs)
	}
	ups := 0
	for _, ev := range shard.Obs().Bus.Since(0) {
		if name, _ := ev.Field("agent"); ev.Kind == obs.KindAgentUp && name == victim {
			ups++
		}
	}
	if ups != 1 {
		t.Fatalf("%d agent-up events for %s, want 1", ups, victim)
	}

	// Two jobs that each fill a server: one of them lands on the rejoined
	// agent, and it trains there.
	var onVictim string
	for i := 0; i < 2; i++ {
		st, err := submit(fd, o, serverless.SubmitRequest{
			Model: "resnet50", GlobalBatch: 64, Iterations: 1e7, DeadlineSeconds: 1e6,
		}, testTask(int64(i+1), 100))
		if err != nil || st.State == "dropped" {
			t.Fatalf("submission %d: %+v, %v", i, st, err)
		}
		if home, _ := o.Home(st.ID); home == victim {
			onVictim = st.ID
		}
	}
	if err := o.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if onVictim == "" {
		t.Fatalf("no job placed on the rejoined %s", victim)
	}
	if rep, err := o.ctrl.Ping(victim); err != nil || rep.Jobs != 1 {
		t.Fatalf("rejoined %s runs %d tasks (%v), want 1", victim, rep.Jobs, err)
	}
	if err := o.Step(5); err != nil {
		t.Fatal(err)
	}
}
