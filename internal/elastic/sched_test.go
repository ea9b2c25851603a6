package elastic

import (
	"math"
	"testing"

	"github.com/elasticflow/elasticflow/internal/core"
	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/throughput"
)

// TestSchedulerDecisionsPreserveTrajectory closes the Fig. 1 loop in
// miniature: ElasticFlow's per-round decisions for two contending jobs drive
// real trainers — rescale on a changed count, sit out a round on a zero one —
// and the scheduled training lands on the same parameters as a fixed-worker
// reference. (The rescale arithmetic itself is
// TestRescaleMidTrainingPreservesTrajectory; this is the same invariant under
// a real decision stream.)
func TestSchedulerDecisionsPreserveTrajectory(t *testing.T) {
	const iters = 60
	cfg := func(seed int64) Config {
		data, _ := SyntheticRegression(seed, 256, 4, 0.01)
		return Config{Model: LinearRegression{Dim: 4}, Data: data, GlobalBatch: 64, LearningRate: 0.1, Workers: 1, Seed: seed}
	}
	ef := core.New(core.Options{SlotSec: 1, PowerOfTwo: true, SafetyRescales: -1})
	var jobs []*job.Job
	trainers := map[string]*Trainer{}
	for i, id := range []string{"a", "b"} {
		jobs = append(jobs, &job.Job{
			ID: id, GlobalBatch: 64, TotalIters: iters, Deadline: 1e9, Class: job.SLO,
			Curve:   throughput.MustCurve(map[int]float64{1: 1, 2: 1.8, 4: 3, 8: 4.5}),
			MinGPUs: 1, MaxGPUs: 8,
		})
		tr, err := New(cfg(int64(10 + i)))
		if err != nil {
			t.Fatal(err)
		}
		trainers[id] = tr
	}
	for round := 0; round < 100; round++ {
		var active []*job.Job
		for _, j := range jobs {
			if !j.Done() {
				active = append(active, j)
			}
		}
		if len(active) == 0 {
			break
		}
		dec := ef.Schedule(float64(round), active, 8)
		for _, j := range active {
			tr := trainers[j.ID]
			j.GPUs = dec.Alloc[j.ID]
			if j.GPUs <= 0 {
				continue // suspended: parameters stay checkpointed in the trainer
			}
			if j.GPUs != tr.Workers() {
				if _, err := tr.Rescale(j.GPUs); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.Steps(min(5, iters-tr.Step())); err != nil {
				t.Fatal(err)
			}
			j.DoneIters = float64(tr.Step())
		}
	}
	if trainers["a"].Step() != iters || trainers["b"].Step() != iters {
		t.Fatalf("trained %d/%d steps, want %d each", trainers["a"].Step(), trainers["b"].Step(), iters)
	}
	if trainers["a"].Rescales()+trainers["b"].Rescales() == 0 {
		t.Fatal("no rescale happened; the decision stream exercised nothing elastic")
	}
	ref, err := New(cfg(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Steps(iters); err != nil {
		t.Fatal(err)
	}
	want, got := ref.Params(), trainers["a"].Params()
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-8 {
			t.Errorf("param %d: scheduled training %v != fixed reference %v", i, got[i], want[i])
		}
	}
}
