package elasticflow_test

import (
	"math"
	"net/http/httptest"
	"testing"

	elasticflow "github.com/elasticflow/elasticflow"
)

// TestPublicAPISchedulers: every documented scheduler name resolves and the
// unknown name errors.
func TestPublicAPISchedulers(t *testing.T) {
	for _, name := range elasticflow.SchedulerNames() {
		s, err := elasticflow.SchedulerByName(name)
		if err != nil {
			t.Errorf("SchedulerByName(%q): %v", name, err)
			continue
		}
		if s.Name() == "" {
			t.Errorf("%q: empty scheduler name", name)
		}
	}
	if _, err := elasticflow.SchedulerByName("slurm"); err == nil {
		t.Error("unknown scheduler accepted")
	}
	if s, err := elasticflow.SchedulerByName("ef"); err != nil || s.Name() != "elasticflow" {
		t.Errorf("alias ef -> %v, %v", s, err)
	}
}

// TestPublicAPIEndToEnd drives the facade the way the README advertises:
// generate a workload, simulate it under two schedulers, compare.
func TestPublicAPIEndToEnd(t *testing.T) {
	hw := elasticflow.DefaultHardware()
	est := elasticflow.NewEstimator(hw)
	prof := elasticflow.NewProfiler(est, 8, 64)

	tr := elasticflow.GenerateTrace(elasticflow.TraceConfig{
		Name: "facade", Jobs: 30, ClusterGPUs: 32, Load: 1.5, Seed: 99,
	})
	if len(elasticflow.ModelCatalog()) != 6 {
		t.Fatal("model catalog incomplete")
	}

	results := map[string]elasticflow.SimResult{}
	for _, name := range []string{"elasticflow", "gandiva"} {
		s, err := elasticflow.SchedulerByName(name)
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := tr.Jobs(prof, est)
		if err != nil {
			t.Fatal(err)
		}
		res, err := elasticflow.Simulate(elasticflow.SimConfig{
			Topology:  elasticflow.Topology{Servers: 4, GPUsPerServer: 8},
			Scheduler: s,
		}, jobs, tr.Name)
		if err != nil {
			t.Fatal(err)
		}
		results[name] = res
	}
	if results["elasticflow"].DeadlineSatisfactoryRatio() <= results["gandiva"].DeadlineSatisfactoryRatio() {
		t.Errorf("facade run lost the headline comparison: %v vs %v",
			results["elasticflow"].DeadlineSatisfactoryRatio(), results["gandiva"].DeadlineSatisfactoryRatio())
	}
}

// TestPublicAPIFrontDoor serves the front door through the public surface and
// drives it with the public client, as efserver's users do.
func TestPublicAPIFrontDoor(t *testing.T) {
	fd, err := elasticflow.NewFrontDoor(elasticflow.FrontDoorOptions{
		ShardTopology: elasticflow.Topology{Servers: 2, GPUsPerServer: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(elasticflow.NewHandler(fd))
	defer srv.Close()
	defer fd.Shutdown()
	c := elasticflow.NewClient(srv.URL)
	st, err := c.Submit(elasticflow.SubmitRequest{
		Model: "bert", GlobalBatch: 128, Iterations: 10000, DeadlineSeconds: 7200,
	})
	if err != nil || st.State == "dropped" {
		t.Fatalf("submission: %+v, %v", st, err)
	}
	if st.ID != "s0-job-0001" {
		t.Errorf("job ID %q, want the shard prefix s0-", st.ID)
	}
	if err := c.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
}

// TestPublicAPIClusterAndFailures covers the remaining facade surface.
func TestPublicAPIClusterAndFailures(t *testing.T) {
	c, err := elasticflow.NewCluster(elasticflow.Topology{Servers: 2, GPUsPerServer: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalGPUs() != 16 {
		t.Errorf("TotalGPUs=%d", c.TotalGPUs())
	}
	s, err := elasticflow.SchedulerByName("elasticflow")
	if err != nil {
		t.Fatal(err)
	}
	j := &elasticflow.Job{
		ID: "f", GlobalBatch: 64, TotalIters: 1000, Deadline: math.Inf(1),
		Class: elasticflow.BestEffort, MinGPUs: 1, MaxGPUs: 8,
	}
	prof, _, err := elasticflow.NewProfiler(elasticflow.NewEstimator(elasticflow.DefaultHardware()), 8, 8).
		Profile(elasticflow.ModelCatalog()[0], 64)
	if err != nil {
		t.Fatal(err)
	}
	j.Curve = prof.Curve
	res, err := elasticflow.Simulate(elasticflow.SimConfig{
		Topology:  elasticflow.Topology{Servers: 2, GPUsPerServer: 8},
		Scheduler: s,
		Failures:  []elasticflow.NodeFailure{{Server: 0, StartSec: 1, DurationSec: 10}},
	}, []*elasticflow.Job{j}, "facade-failures")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Jobs[0].Finished {
		t.Error("job did not survive the injected failure")
	}
}
