package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/elasticflow/elasticflow/internal/agent"
	"github.com/elasticflow/elasticflow/internal/faults"
	"github.com/elasticflow/elasticflow/internal/frontdoor"
	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/serverless"
)

// TestFullStackThroughFrontDoor runs the whole product in one process, the
// way a user meets it: jobs submitted over HTTP to the front door launch on
// RPC agents and train; an armed crash fault kills one agent mid-training,
// heartbeats fence it, and its job resumes from its mirrored checkpoint on
// the survivor and reaches its iteration count; a tenant over its rate
// limit is answered 429 and nothing launches for it.
func TestFullStackThroughFrontDoor(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	rules, err := faults.Parse("crash:op=Step,at=3")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(chaosSeed, rules)
	fd, o := newStack(t, clk, frontdoor.Options{
		// Two submissions back to back, then the bucket is dry for the
		// rest of the test.
		Tenants: map[string]frontdoor.TenantConfig{"acme": {RatePerSec: 1e-6, Burst: 2}},
	}, Options{
		Faults:          inj,
		Controller:      agent.ControllerOptions{Seed: chaosSeed, Sleep: func(time.Duration) {}},
		HeartbeatMisses: 2,
	})
	srv := httptest.NewServer(frontdoor.Handler(fd))
	defer srv.Close()
	client := frontdoor.NewClient(srv.URL)

	const iters = 60
	var ids []string
	for i, req := range []serverless.SubmitRequest{
		{Tenant: "acme", Model: "resnet50", GlobalBatch: 256, Iterations: 1e7, DeadlineSeconds: 1e6},
		{Tenant: "acme", Model: "bert", GlobalBatch: 64, Iterations: 1e7, DeadlineSeconds: 1e6},
	} {
		st, err := client.Submit(req)
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		if err := o.Register(st.ID, testTask(int64(i+1), iters)); err != nil {
			t.Fatal(err)
		}
		if _, ok := o.Home(st.ID); !ok {
			t.Fatalf("%s admitted but not launched", st.ID)
		}
		ids = append(ids, st.ID)
		clk.advance(30 * time.Second)
	}

	// The tenant's bucket is empty: 429, and no job exists to launch.
	body, err := json.Marshal(serverless.SubmitRequest{Tenant: "acme", Model: "bert", GlobalBatch: 64, Iterations: 1e7, DeadlineSeconds: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submission over the rate limit answered %d, want 429", resp.StatusCode)
	}
	if list, err := client.List(); err != nil || len(list) != len(ids) {
		t.Fatalf("job list after the 429: %d jobs (%v), want %d", len(list), err, len(ids))
	}
	running := 0
	for _, name := range o.ctrl.Agents() {
		rep, err := o.ctrl.Ping(name)
		if err != nil {
			t.Fatal(err)
		}
		running += rep.Jobs
	}
	if running != len(ids) {
		t.Fatalf("agents run %d tasks, want %d: the refused submission launched something", running, len(ids))
	}

	// Train in rounds as an operator loop would: step, let the front door
	// advance the clock, heartbeat, reconcile. Step and reconcile errors
	// are expected while the crash is in flight.
	var victim, lost string
	for round := 0; round < 3*iters/10; round++ {
		homes := map[string]string{}
		for _, id := range ids {
			homes[id], _ = o.Home(id)
		}
		_ = o.Step(10)
		clk.advance(time.Minute)
		fd.Tick()
		if down := o.HealthCheck(); len(down) > 0 {
			if victim != "" {
				t.Fatalf("second agent declared down: %v", down)
			}
			victim = down[0]
			for id, home := range homes {
				if home == victim {
					lost = id
				}
			}
		}
		_ = o.Reconcile()
	}
	if victim == "" || !inj.Crashed(victim) {
		t.Fatalf("declared down %q; the injector crashed it: %v", victim, victim != "" && inj.Crashed(victim))
	}
	if lost == "" {
		t.Fatalf("no job was homed on the crashed %s", victim)
	}
	if ds := fd.Shard(0).DownServers(); len(ds) != 1 || ds[0] != serverIndex(victim) {
		t.Fatalf("shard down servers %v, want [%d]", ds, serverIndex(victim))
	}
	restored := false
	for _, ev := range fd.Shard(0).Obs().Bus.Since(0) {
		if ev.Kind == obs.KindRestore && ev.JobID == lost {
			from, _ := ev.Field("from")
			step, _ := ev.Field("step")
			restored = from == victim && step != "0"
		}
	}
	if !restored {
		t.Fatalf("%s was not restored from a mirror taken off %s", lost, victim)
	}
	for _, id := range ids {
		home, ok := o.Home(id)
		if !ok || home == victim {
			t.Fatalf("%s on %q (ok=%v) after recovery, want a survivor", id, home, ok)
		}
		ts, err := o.TrainingStatus(id)
		if err != nil {
			t.Fatal(err)
		}
		if !ts.Done || ts.Step != iters {
			t.Fatalf("%s at step %d done=%v, want %d done", id, ts.Step, ts.Done, iters)
		}
	}
}
