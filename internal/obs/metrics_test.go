package obs

import (
	"strings"
	"testing"
)

func TestRegistryRender(t *testing.T) {
	r := newRegistry()
	c := r.counter("ef_z_total", "Z things.")
	c.Add(3)
	cv := r.counterVec("ef_a_total", "A things by kind.", "kind")
	cv.With("x").Inc()
	cv.With("y").Add(2)
	g := r.gauge("ef_level", "Current level.")
	g.Set(7.5)
	h := r.histogram("ef_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# HELP ef_a_total A things by kind.\n# TYPE ef_a_total counter\n",
		`ef_a_total{kind="x"} 1`,
		`ef_a_total{kind="y"} 2`,
		"# TYPE ef_latency_seconds histogram",
		`ef_latency_seconds_bucket{le="0.1"} 1`,
		`ef_latency_seconds_bucket{le="1"} 2`,
		`ef_latency_seconds_bucket{le="+Inf"} 3`,
		"ef_latency_seconds_sum 5.55",
		"ef_latency_seconds_count 3",
		"# TYPE ef_level gauge",
		"ef_level 7.5",
		"ef_z_total 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Families render in lexicographic order.
	if strings.Index(out, "ef_a_total") > strings.Index(out, "ef_z_total") {
		t.Error("families not sorted by name")
	}
	// Rendering is deterministic.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Error("two renders of the same registry differ")
	}
}

func TestRegistryIdempotentAndMismatch(t *testing.T) {
	r := newRegistry()
	a := r.counter("ef_x_total", "X.")
	b := r.counter("ef_x_total", "X.")
	if a != b {
		t.Error("re-registering the same counter returned a new instance")
	}
	defer func() {
		if recover() == nil {
			t.Error("type mismatch did not panic")
		}
	}()
	r.gauge("ef_x_total", "X as gauge.")
}

func TestLabelEscaping(t *testing.T) {
	r := newRegistry()
	r.counterVec("ef_e_total", "E.", "msg").With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `ef_e_total{msg="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("output missing %q:\n%s", want, b.String())
	}
}

// TestSeriesSortByRenderedSuffix: series are keyed by raw label value but
// render in the order of their rendered {label="v"} suffixes — `a!"` sorts
// before `a"` although "a" sorts before "a!".
func TestSeriesSortByRenderedSuffix(t *testing.T) {
	r := newRegistry()
	cv := r.counterVec("ef_s_total", "S.", "k")
	cv.With("a").Inc()
	cv.With("a!").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := "ef_s_total{k=\"a!\"} 1\nef_s_total{k=\"a\"} 1\n"
	if !strings.Contains(b.String(), want) {
		t.Errorf("output missing %q:\n%s", want, b.String())
	}
}

func TestEscapeLabel(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"", ""},
		{"acme", "acme"},
		{`a\b`, `a\\b`},
		{`a"b`, `a\"b`},
		{"a\nb", `a\nb`},
		{"\\\"\n", `\\\"\n`},
	} {
		if got := escapeLabel(c.in); got != c.want {
			t.Errorf("escapeLabel(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// The hot path — a tenant or kind name with nothing to escape — hands
	// the input back without building anything.
	if n := testing.AllocsPerRun(100, func() { _ = escapeLabel("tenant-7") }); n != 0 {
		t.Errorf("escapeLabel on a clean value allocates %v times, want 0", n)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Errorf("Value = %g, want 5", c.Value())
	}
}
