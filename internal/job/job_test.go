package job

import (
	"math"
	"testing"

	"github.com/elasticflow/elasticflow/internal/model"
	"github.com/elasticflow/elasticflow/internal/throughput"
)

func testJob() *Job {
	return &Job{
		ID:          "j1",
		Model:       model.MustByName("resnet50"),
		GlobalBatch: 256,
		TotalIters:  1000,
		SubmitTime:  0,
		Deadline:    3600,
		Class:       SLO,
		Curve:       throughput.MustCurve(map[int]float64{1: 1, 2: 1.5, 4: 2}),
		MinGPUs:     1,
		MaxGPUs:     4,
	}
}

func TestValidate(t *testing.T) {
	if err := testJob().Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Job)
	}{
		{"empty id", func(j *Job) { j.ID = "" }},
		{"zero batch", func(j *Job) { j.GlobalBatch = 0 }},
		{"zero iters", func(j *Job) { j.TotalIters = 0 }},
		{"slo without deadline", func(j *Job) { j.Deadline = math.Inf(1) }},
		{"deadline before submit", func(j *Job) { j.SubmitTime = 10; j.Deadline = 5 }},
		{"no curve", func(j *Job) { j.Curve = throughput.Curve{} }},
	}
	for _, tc := range cases {
		j := testJob()
		tc.mut(j)
		if err := j.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid job", tc.name)
		}
	}
	be := testJob()
	be.Class = BestEffort
	be.Deadline = math.Inf(1)
	if err := be.Validate(); err != nil {
		t.Errorf("best-effort job with infinite deadline rejected: %v", err)
	}
}

func TestThroughputBounds(t *testing.T) {
	j := testJob()
	j.MinGPUs = 2
	j.MaxGPUs = 4
	if got := j.Throughput(1); got != 0 {
		t.Errorf("Throughput below MinGPUs = %v want 0", got)
	}
	if got := j.Throughput(2); got != 1.5 {
		t.Errorf("Throughput(2)=%v want 1.5", got)
	}
	if got := j.Throughput(8); got != 2 {
		t.Errorf("Throughput above MaxGPUs = %v want 2 (saturated)", got)
	}
}

func TestTimeToFinish(t *testing.T) {
	j := testJob()
	if got := j.TimeToFinish(1); got != 1000 {
		t.Errorf("TimeToFinish(1)=%v want 1000", got)
	}
	if got := j.TimeToFinish(4); got != 500 {
		t.Errorf("TimeToFinish(4)=%v want 500", got)
	}
	if got := j.TimeToFinish(0); !math.IsInf(got, 1) {
		t.Errorf("TimeToFinish(0)=%v want +Inf", got)
	}
	j.DoneIters = 1000
	if got := j.TimeToFinish(1); got != 0 {
		t.Errorf("TimeToFinish when done = %v want 0", got)
	}
}

func TestAdvance(t *testing.T) {
	j := testJob()
	j.GPUs = 2
	if delta := j.Advance(0, 100); delta != 150 {
		t.Errorf("Advance delta=%v want 150", delta)
	}
	if j.DoneIters != 150 {
		t.Errorf("DoneIters=%v want 150", j.DoneIters)
	}
	// No progress with zero GPUs.
	j.GPUs = 0
	if delta := j.Advance(100, 100); delta != 0 {
		t.Errorf("Advance with no GPUs = %v want 0", delta)
	}
	// Progress never exceeds the remaining work.
	j.GPUs = 4
	j.DoneIters = 990
	if delta := j.Advance(200, 1000); delta != 10 {
		t.Errorf("Advance past completion = %v want 10", delta)
	}
	if !j.Done() {
		t.Error("job not done after finishing all iterations")
	}
}

func TestAdvanceFreeze(t *testing.T) {
	j := testJob()
	j.GPUs = 1
	j.FrozenUntil = 50
	// Fully frozen interval: no progress.
	if delta := j.Advance(0, 30); delta != 0 {
		t.Errorf("Advance inside freeze = %v want 0", delta)
	}
	// Partially frozen: only the thawed part counts.
	if delta := j.Advance(0, 80); delta != 30 {
		t.Errorf("Advance across freeze = %v want 30", delta)
	}
}

// TestDoneAfterMatchesAdvance holds the non-mutating probe against Advance
// itself: for every shape of interval the verdict equals Done() on a copy
// that was really advanced, and the probed job is left untouched.
func TestDoneAfterMatchesAdvance(t *testing.T) {
	for _, c := range []struct {
		name                   string
		gpus                   int
		done, frozenUntil, now float64
		dt                     float64
	}{
		{"unallocated", 0, 990, 0, 0, 1e6},
		{"running-short", 2, 0, 0, 0, 100},
		{"running-finishes", 4, 990, 0, 200, 1000},
		{"running-exactly", 1, 0, 0, 0, 1000},
		{"frozen-throughout", 4, 990, 500, 0, 400},
		{"partially-frozen-finishes", 4, 990, 50, 0, 80},
		{"partially-frozen-short", 1, 0, 50, 0, 80},
		{"below-done-tolerance", 1, 1000 - 1e-10, 0, 0, 0},
		{"negative-dt", 4, 990, 0, 10, -5},
	} {
		j := testJob()
		j.GPUs, j.DoneIters, j.FrozenUntil = c.gpus, c.done, c.frozenUntil
		cp := *j
		cp.Advance(c.now, c.dt)
		if got, want := j.DoneAfter(c.now, c.dt), cp.Done(); got != want {
			t.Errorf("%s: DoneAfter = %v, Advance then Done = %v", c.name, got, want)
		}
		if j.DoneIters != c.done {
			t.Errorf("%s: DoneAfter moved DoneIters %v → %v", c.name, c.done, j.DoneIters)
		}
	}
}

func TestMetDeadline(t *testing.T) {
	j := testJob()
	j.State = Completed
	j.CompletionTime = 3000
	if !j.MetDeadline() {
		t.Error("on-time completion not recognized")
	}
	j.CompletionTime = 4000
	if j.MetDeadline() {
		t.Error("late completion counted as met")
	}
	j.State = Dropped
	if j.MetDeadline() {
		t.Error("dropped job counted as met")
	}
}

func TestStrings(t *testing.T) {
	for _, c := range []Class{SLO, BestEffort, SoftDeadline, Class(9)} {
		if c.String() == "" {
			t.Errorf("empty string for class %d", c)
		}
	}
	for _, s := range []State{Pending, Admitted, Running, Completed, Dropped, Cancelled, State(9)} {
		if s.String() == "" {
			t.Errorf("empty string for state %d", s)
		}
	}
	if testJob().String() == "" {
		t.Error("empty job string")
	}
}
