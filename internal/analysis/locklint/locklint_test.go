package locklint_test

import (
	"testing"

	"github.com/elasticflow/elasticflow/internal/analysis/analysistest"
	"github.com/elasticflow/elasticflow/internal/analysis/locklint"
)

func TestFixture(t *testing.T) {
	analysistest.Run(t, "testdata", locklint.Analyzer, "locks")
}

func TestGuardFixture(t *testing.T) {
	analysistest.Run(t, "testdata", locklint.Analyzer, "guard")
}
