package serverless

import (
	"math"
	"testing"

	"github.com/elasticflow/elasticflow/internal/topology"
)

// TestSubmitPricesCheckpointMovement checks the live platform sizes every
// job's checkpoint and fixes its conservative migration price at submission,
// with the estimator's shared cost model — the one the simulator prices
// with too.
func TestSubmitPricesCheckpointMovement(t *testing.T) {
	p, _ := newTestPlatform(t)
	st, err := p.Submit(SubmitRequest{Model: "resnet50", GlobalBatch: 128, Iterations: 10000, DeadlineSeconds: 7200})
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	j := p.all[st.ID]
	p.mu.Unlock()
	if j == nil {
		t.Fatal("submitted job missing from table")
	}
	if j.CheckpointBytes != j.Model.GradientBytes() {
		t.Errorf("CheckpointBytes = %d, want the model's gradient size %d", j.CheckpointBytes, j.Model.GradientBytes())
	}
	costs := p.est.CostModel()
	wantMig := costs.MigrateCost(j.CheckpointBytes, topology.LevelCluster)
	if math.Abs(j.MigrateOverheadSec-wantMig) > 1e-9 {
		t.Errorf("MigrateOverheadSec = %v, want cross-rack price %v", j.MigrateOverheadSec, wantMig)
	}
	if j.MigrateOverheadSec <= j.RescaleOverheadSec {
		t.Errorf("migration price %v should exceed in-place rescale %v", j.MigrateOverheadSec, j.RescaleOverheadSec)
	}
	// The rescale overhead itself is the same model's in-place price.
	if want := costs.RescaleCost(j.CheckpointBytes); math.Abs(j.RescaleOverheadSec-want) > 1e-9 {
		t.Errorf("RescaleOverheadSec = %v, want shared-model price %v", j.RescaleOverheadSec, want)
	}
}
