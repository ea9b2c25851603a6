package sim

import (
	"testing"

	"github.com/elasticflow/elasticflow/internal/model"
	"github.com/elasticflow/elasticflow/internal/throughput"
	"github.com/elasticflow/elasticflow/internal/transfer"
)

// TestSimAndLivePriceOneModel is the acceptance gate of the shared cost
// model: the simulator's default pricing and the live platform's
// estimator-derived pricing are the same transfer.CostModel value, so the
// same move costs the same seconds in both. It stays as long as the two hosts
// obtain their model from two places (transfer.DefaultCostModel here,
// Estimator.CostModel live); what the engine does with the model is covered
// once, by sched.TestEngineApply.
func TestSimAndLivePriceOneModel(t *testing.T) {
	live := throughput.NewEstimator(model.DefaultA100()).CostModel()
	simDefault := transfer.DefaultCostModel()
	if live != simDefault {
		t.Fatalf("live estimator cost model %+v != sim default %+v", live, simDefault)
	}
}
