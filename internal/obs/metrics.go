package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry holds metric families and renders them in Prometheus text
// exposition format (stdlib only). Families are registered only by New's
// catalog — the registration methods are unexported, so no other package
// can add one. Registration is idempotent: asking for an existing family
// with the same type and label returns it; a mismatch panics, since that is
// a programming error in the catalog.
type Registry struct {
	mu sync.Mutex
	// fams maps family name to its state. guarded by mu
	fams map[string]*family
}

// family is one named metric family and its series.
type family struct {
	name    string
	help    string
	typ     string    // counter|gauge|histogram
	label   string    // the one label name; empty for an unlabelled family
	buckets []float64 // histogram upper bounds, sorted, +Inf implicit

	mu sync.Mutex
	// series maps the raw label value (empty for an unlabelled family) to
	// its value; WritePrometheus renders the {label="v"} suffix. guarded
	// by mu
	series map[string]value
}

// value is the union of series states; exactly one field is used per family
// type.
type value interface{}

// newRegistry creates an empty registry.
func newRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func (r *Registry) register(name, help, typ, label string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ || f.label != label {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s with label %q (was %s with label %q)", name, typ, label, f.typ, f.label))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, label: label, buckets: buckets, series: make(map[string]value)}
	r.fams[name] = f
	return f
}

// Counter is a monotonically increasing value.
type Counter struct {
	mu sync.Mutex
	// v is the current total. guarded by mu
	v float64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by d (negative deltas are ignored).
func (c *Counter) Add(d float64) {
	if d < 0 {
		return
	}
	c.mu.Lock()
	c.v += d
	c.mu.Unlock()
}

// Value returns the current total.
func (c *Counter) Value() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is a value that can go up and down.
type Gauge struct {
	mu sync.Mutex
	// v is the current level. guarded by mu
	v float64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Add shifts the gauge by d.
func (g *Gauge) Add(d float64) {
	g.mu.Lock()
	g.v += d
	g.mu.Unlock()
}

// Value returns the current level.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram counts observations into fixed cumulative buckets.
type Histogram struct {
	bounds []float64
	mu     sync.Mutex
	// counts[i] is the number of observations <= bounds[i]; the +Inf
	// bucket is count. guarded by mu
	counts []uint64
	// sum is the total of observed values. guarded by mu
	sum float64
	// count is the number of observations. guarded by mu
	count uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sum += v
	h.count++
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// CounterVec is a counter family partitioned by its one label.
type CounterVec struct{ f *family }

// With returns the counter for the label value v (created on first use).
func (cv *CounterVec) With(v string) *Counter { return cv.f.child(v).(*Counter) }

// GaugeVec is a gauge family partitioned by its one label.
type GaugeVec struct{ f *family }

// With returns the gauge for the label value v (created on first use).
func (gv *GaugeVec) With(v string) *Gauge { return gv.f.child(v).(*Gauge) }

// HistogramVec is a histogram family partitioned by its one label.
type HistogramVec struct{ f *family }

// With returns the histogram for the label value v (created on first use).
func (hv *HistogramVec) With(v string) *Histogram { return hv.f.child(v).(*Histogram) }

// child returns (creating if needed) the series for the raw label value v.
func (f *family) child(v string) value {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[v]
	if !ok {
		switch f.typ {
		case "counter":
			s = &Counter{}
		case "gauge":
			s = &Gauge{}
		default:
			s = &Histogram{bounds: f.buckets, counts: make([]uint64, len(f.buckets))}
		}
		f.series[v] = s
	}
	return s
}

// counter registers (or fetches) an unlabelled counter.
func (r *Registry) counter(name, help string) *Counter {
	return r.register(name, help, "counter", "", nil).child("").(*Counter)
}

// counterVec registers (or fetches) a counter family with one label.
func (r *Registry) counterVec(name, help, label string) *CounterVec {
	return &CounterVec{f: r.register(name, help, "counter", label, nil)}
}

// gauge registers (or fetches) an unlabelled gauge.
func (r *Registry) gauge(name, help string) *Gauge {
	return r.register(name, help, "gauge", "", nil).child("").(*Gauge)
}

// gaugeVec registers (or fetches) a gauge family with one label.
func (r *Registry) gaugeVec(name, help, label string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, "gauge", label, nil)}
}

// histogram registers (or fetches) an unlabelled fixed-bucket histogram.
// Buckets must be sorted ascending; the +Inf bucket is implicit.
func (r *Registry) histogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, help, "histogram", "", buckets).child("").(*Histogram)
}

// histogramVec registers (or fetches) a fixed-bucket histogram family with
// one label.
func (r *Registry) histogramVec(name, help string, buckets []float64, label string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, "histogram", label, buckets)}
}

// suffix renders the series key v as `{label="v"}` (empty for an unlabelled
// family), escaping backslash, quote and newline per the exposition format.
func (f *family) suffix(v string) string {
	if f.label == "" {
		return ""
	}
	return "{" + f.label + `="` + escapeLabel(v) + `"}`
}

// labelEscaper is built once: constructing a Replacer costs more than most
// label renderings, and a scrape renders every labelled series.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	return labelEscaper.Replace(v)
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in the text exposition format,
// families and series in lexicographic order so output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()

	for _, f := range fams {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(w io.Writer) error {
	f.mu.Lock()
	type row struct {
		suffix string
		v      value
	}
	rows := make([]row, 0, len(f.series))
	for k, v := range f.series {
		rows = append(rows, row{f.suffix(k), v})
	}
	sort.Slice(rows, func(i, k int) bool { return rows[i].suffix < rows[k].suffix })
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
	for _, row := range rows {
		k := row.suffix
		switch v := row.v.(type) {
		case *Counter:
			fmt.Fprintf(&b, "%s%s %s\n", f.name, k, formatValue(v.Value()))
		case *Gauge:
			fmt.Fprintf(&b, "%s%s %s\n", f.name, k, formatValue(v.Value()))
		case *Histogram:
			v.mu.Lock()
			for i, bound := range v.bounds {
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, mergeLabels(k, "le", formatValue(bound)), v.counts[i])
			}
			fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, mergeLabels(k, "le", "+Inf"), v.count)
			fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, k, formatValue(v.sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", f.name, k, v.count)
			v.mu.Unlock()
		}
	}
	f.mu.Unlock()
	_, err := io.WriteString(w, b.String())
	return err
}

// mergeLabels appends one label pair to an existing rendered suffix.
func mergeLabels(suffix, key, val string) string {
	extra := key + `="` + escapeLabel(val) + `"`
	if suffix == "" {
		return "{" + extra + "}"
	}
	return strings.TrimSuffix(suffix, "}") + "," + extra + "}"
}
