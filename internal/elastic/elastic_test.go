package elastic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func newTrainer(t *testing.T, workers, batch int) *Trainer {
	t.Helper()
	data, _ := SyntheticRegression(1, 512, 4, 0.01)
	tr, err := New(Config{
		Model:        LinearRegression{Dim: 4},
		Data:         data,
		GlobalBatch:  batch,
		LearningRate: 0.1,
		Workers:      workers,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	data, _ := SyntheticRegression(1, 64, 2, 0.01)
	base := Config{Model: LinearRegression{Dim: 2}, Data: data, GlobalBatch: 16, LearningRate: 0.1, Workers: 2, Seed: 1}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"nil model", func(c *Config) { c.Model = nil }},
		{"nil data", func(c *Config) { c.Data = nil }},
		{"zero batch", func(c *Config) { c.GlobalBatch = 0 }},
		{"batch exceeds data", func(c *Config) { c.GlobalBatch = 1000 }},
		{"zero lr", func(c *Config) { c.LearningRate = 0 }},
		{"workers don't divide batch", func(c *Config) { c.Workers = 3 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestLocalBatchDerivation(t *testing.T) {
	tr := newTrainer(t, 4, 64)
	if tr.LocalBatch() != 16 {
		t.Errorf("LocalBatch=%d want 16", tr.LocalBatch())
	}
	if _, err := tr.Rescale(8); err != nil {
		t.Fatal(err)
	}
	if tr.LocalBatch() != 8 {
		t.Errorf("LocalBatch after rescale = %d want 8 (global batch constant, §5)", tr.LocalBatch())
	}
}

func TestConvergence(t *testing.T) {
	tr := newTrainer(t, 2, 64)
	initial := tr.Loss()
	if err := tr.Steps(300); err != nil {
		t.Fatal(err)
	}
	final := tr.Loss()
	if final >= initial/10 {
		t.Errorf("loss %v -> %v: did not converge", initial, final)
	}
	// Noise 0.01 ⇒ MSE floor ≈ ½·0.0001.
	if final > 0.01 {
		t.Errorf("final loss %v above noise floor", final)
	}
}

// TestTrajectoryInvariantUnderWorkerCount: the parameter trajectory is
// identical (up to FP reassociation) for any worker count dividing the
// global batch — the correctness contract of elastic data parallelism.
func TestTrajectoryInvariantUnderWorkerCount(t *testing.T) {
	ref := newTrainer(t, 1, 64)
	if err := ref.Steps(50); err != nil {
		t.Fatal(err)
	}
	want := ref.Params()
	for _, w := range []int{2, 4, 8} {
		tr := newTrainer(t, w, 64)
		if err := tr.Steps(50); err != nil {
			t.Fatal(err)
		}
		got := tr.Params()
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				t.Errorf("workers=%d: param %d = %v want %v", w, i, got[i], want[i])
			}
		}
	}
}

// TestRescaleMidTrainingPreservesTrajectory: training with a rescale in the
// middle produces the same parameters as training without one.
func TestRescaleMidTrainingPreservesTrajectory(t *testing.T) {
	ref := newTrainer(t, 2, 64)
	if err := ref.Steps(40); err != nil {
		t.Fatal(err)
	}
	want := ref.Params()

	tr := newTrainer(t, 1, 64)
	if err := tr.Steps(13); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Rescale(8); err != nil {
		t.Fatal(err)
	}
	if err := tr.Steps(20); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Rescale(4); err != nil {
		t.Fatal(err)
	}
	if err := tr.Steps(7); err != nil {
		t.Fatal(err)
	}
	if tr.Step() != 40 {
		t.Fatalf("step=%d want 40", tr.Step())
	}
	if tr.Rescales() != 2 {
		t.Fatalf("rescales=%d want 2", tr.Rescales())
	}
	got := tr.Params()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-8 {
			t.Errorf("param %d = %v want %v (rescale perturbed trajectory)", i, got[i], want[i])
		}
	}
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	tr := newTrainer(t, 2, 64)
	if err := tr.Steps(10); err != nil {
		t.Fatal(err)
	}
	ck := tr.Checkpoint()
	if err := tr.Steps(10); err != nil {
		t.Fatal(err)
	}
	after := tr.Params()
	if err := tr.Restore(ck); err != nil {
		t.Fatal(err)
	}
	if tr.Step() != 10 {
		t.Errorf("step after restore = %d want 10", tr.Step())
	}
	if err := tr.Steps(10); err != nil {
		t.Fatal(err)
	}
	replay := tr.Params()
	for i := range after {
		if math.Abs(after[i]-replay[i]) > 1e-12 {
			t.Errorf("param %d: replay %v want %v (restore must be exact)", i, replay[i], after[i])
		}
	}
	// Restoring a checkpoint of the wrong shape fails.
	if err := tr.Restore(Checkpoint{Params: []float64{1}}); err == nil {
		t.Error("mismatched checkpoint accepted")
	}
}

func TestCheckpointCloneIndependent(t *testing.T) {
	ck := Checkpoint{Params: []float64{1, 2}, Step: 3}
	cl := ck.Clone()
	cl.Params[0] = 99
	if ck.Params[0] != 1 {
		t.Error("Clone shares backing array")
	}
}

func TestRescaleValidation(t *testing.T) {
	tr := newTrainer(t, 2, 64)
	if _, err := tr.Rescale(0); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := tr.Rescale(3); err == nil {
		t.Error("non-divisor worker count accepted")
	}
}

func TestMLPGradientMatchesNumeric(t *testing.T) {
	m := MLP{Dim: 3, Hidden: 4}
	rng := rand.New(rand.NewSource(3))
	p := m.Init(rng)
	xs := [][]float64{{0.3, -0.2, 0.8}, {-1, 0.5, 0.1}}
	ys := []float64{0.7, -0.3}
	grad := make([]float64, m.NumParams())
	m.Gradient(p, xs, ys, grad)
	const h = 1e-6
	for i := range p {
		orig := p[i]
		p[i] = orig + h
		lp := m.Loss(p, xs, ys)
		p[i] = orig - h
		lm := m.Loss(p, xs, ys)
		p[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-grad[i]) > 1e-5*(1+math.Abs(num)) {
			t.Errorf("param %d: analytic %v numeric %v", i, grad[i], num)
		}
	}
}

func TestMLPConvergence(t *testing.T) {
	data, _ := SyntheticRegression(5, 256, 3, 0.01)
	tr, err := New(Config{
		Model:        MLP{Dim: 3, Hidden: 8},
		Data:         data,
		GlobalBatch:  64,
		LearningRate: 0.05,
		Workers:      4,
		Seed:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	initial := tr.Loss()
	if err := tr.Steps(500); err != nil {
		t.Fatal(err)
	}
	if final := tr.Loss(); final >= initial/5 {
		t.Errorf("MLP loss %v -> %v: did not converge", initial, final)
	}
}

// TestLinearGradientProperty: for linear regression the gradient of a batch
// equals the average of per-example gradients — checked against direct
// computation on random inputs.
func TestLinearGradientProperty(t *testing.T) {
	m := LinearRegression{Dim: 3}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := m.Init(rng)
		n := 4 + rng.Intn(8)
		xs := make([][]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			ys[i] = rng.NormFloat64()
		}
		batch := make([]float64, m.NumParams())
		m.Gradient(p, xs, ys, batch)
		avg := make([]float64, m.NumParams())
		for i := range xs {
			gi := make([]float64, m.NumParams())
			m.Gradient(p, xs[i:i+1], ys[i:i+1], gi)
			for k := range avg {
				avg[k] += gi[k] / float64(n)
			}
		}
		for k := range avg {
			if math.Abs(avg[k]-batch[k]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSyntheticRegressionDeterministic(t *testing.T) {
	a, wa := SyntheticRegression(9, 32, 2, 0.1)
	b, wb := SyntheticRegression(9, 32, 2, 0.1)
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatal("true weights differ across equal seeds")
		}
	}
	for i := range a.Ys {
		if a.Ys[i] != b.Ys[i] {
			t.Fatal("labels differ across equal seeds")
		}
	}
}

// TestHierarchicalSyncMatchesFlat: training with hierarchical gradient
// synchronization (workers spread across nodes) follows the same trajectory
// as the flat ring.
func TestHierarchicalSyncMatchesFlat(t *testing.T) {
	data, _ := SyntheticRegression(1, 512, 4, 0.01)
	mk := func(perNode int) *Trainer {
		tr, err := New(Config{
			Model:          LinearRegression{Dim: 4},
			Data:           data,
			GlobalBatch:    64,
			LearningRate:   0.1,
			Workers:        8,
			WorkersPerNode: perNode,
			Seed:           7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	flat := mk(0)
	hier := mk(2) // 8 workers on 4 nodes of 2
	if err := flat.Steps(30); err != nil {
		t.Fatal(err)
	}
	if err := hier.Steps(30); err != nil {
		t.Fatal(err)
	}
	a, b := flat.Params(), hier.Params()
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-8 {
			t.Errorf("param %d: hierarchical %v vs flat %v", i, b[i], a[i])
		}
	}
}
