package obs

import (
	"math"
	"strings"
	"testing"

	"github.com/elasticflow/elasticflow/internal/obs/tracing"
)

func TestDeadlineBudgetRatio(t *testing.T) {
	cases := []struct {
		submit, deadline, completion, want float64
	}{
		{0, 100, 50, 0.5},
		{0, 100, 100, 1},
		{0, 100, 150, 1.5},
		{10, 110, 60, 0.5},
		{0, 100, -5, 0},              // clock skew clamps at zero
		{0, 0, 50, BudgetRatioCap},   // degenerate budget
		{50, 40, 60, BudgetRatioCap}, // deadline before submit
	}
	for _, c := range cases {
		if got := DeadlineBudgetRatio(c.submit, c.deadline, c.completion); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("DeadlineBudgetRatio(%v,%v,%v) = %v, want %v", c.submit, c.deadline, c.completion, got, c.want)
		}
	}
	if got := DeadlineBudgetRatio(0, 1, 1e9); got != BudgetRatioCap {
		t.Errorf("uncapped ratio leaked: %v", got)
	}
}

func TestBurnRateWindows(t *testing.T) {
	o := NewDefault()
	// Ten outcomes, one miss, all inside both windows: miss fraction 0.1
	// over error budget 0.1 → burn rate 1.0 on both windows.
	for i := 0; i < 9; i++ {
		o.ObserveDeadline(float64(i), true, 0.5)
	}
	o.ObserveDeadline(9, false, 1.5)
	fast, slow := o.SLOBurnRates()
	if math.Abs(fast-1) > 1e-12 || math.Abs(slow-1) > 1e-12 {
		t.Fatalf("burn rates = (%v, %v), want (1, 1)", fast, slow)
	}
	// Advance past the fast window with all-met outcomes: the fast rate
	// recovers, the slow window still remembers the miss.
	for i := 0; i < 10; i++ {
		o.ObserveDeadline(400+float64(i), true, 0.5)
	}
	fast, slow = o.SLOBurnRates()
	if fast != 0 {
		t.Fatalf("fast burn rate = %v, want 0 after recovery window", fast)
	}
	if slow <= 0 || slow >= 1 {
		t.Fatalf("slow burn rate = %v, want in (0,1) while the miss ages", slow)
	}
	// Advance past the slow window: everything forgotten.
	o.ObserveDeadline(5000, true, 0.5)
	if _, slow = o.SLOBurnRates(); slow != 0 {
		t.Fatalf("slow burn rate = %v, want 0 once the miss leaves the window", slow)
	}
}

func TestSLOMetricsRender(t *testing.T) {
	o := NewDefault()
	o.ObserveDeadline(10, false, 1.2)
	var b strings.Builder
	if err := o.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"ef_slo_deadline_budget_ratio_count 1",
		"ef_slo_burn_rate_fast 10",
		"ef_slo_burn_rate_slow 10",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

func TestObserveDeadlineNil(t *testing.T) {
	var o *Obs
	o.ObserveDeadline(1, false, 2)
	if fast, slow := o.SLOBurnRates(); fast != 0 || slow != 0 {
		t.Fatal("nil Obs burn rates must be zero")
	}
	if o.Tracer() != nil {
		t.Fatal("nil Obs must hand out a nil tracer")
	}
}

func TestTracerAccessor(t *testing.T) {
	tr := tracing.New(1)
	o := New(Options{Tracer: tr})
	if o.Tracer() != tr {
		t.Fatal("Tracer() must return the configured tracer")
	}
	if NewDefault().Tracer() != nil {
		t.Fatal("default Obs must have tracing disabled")
	}
}
