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
// exposition format (stdlib only). Registration is idempotent: asking for
// an existing family with the same type returns it; a type or label-set
// mismatch panics, since that is a programming error in the catalog.
type Registry struct {
	mu sync.Mutex
	// fams maps family name to its state. guarded by mu
	fams map[string]*family
}

// family is one named metric family and its series.
type family struct {
	name    string
	help    string
	typ     string // counter|gauge|histogram
	labels  []string
	buckets []float64 // histogram upper bounds, sorted, +Inf implicit

	mu sync.Mutex
	// series maps the rendered label suffix to its value. guarded by mu
	series map[string]value
}

// value is the union of series states; exactly one field is used per family
// type.
type value interface{}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func (r *Registry) register(name, help, typ string, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s with %d labels (was %s with %d)", name, typ, len(labels), f.typ, len(f.labels)))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, labels: labels, buckets: buckets, series: make(map[string]value)}
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

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (created on first
// use). The number of values must match the registered label names.
func (cv *CounterVec) With(values ...string) *Counter {
	v := cv.f.child(values, func() value { return &Counter{} })
	return v.(*Counter)
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values (created on first use).
func (gv *GaugeVec) With(values ...string) *Gauge {
	v := gv.f.child(values, func() value { return &Gauge{} })
	return v.(*Gauge)
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (hv *HistogramVec) With(values ...string) *Histogram {
	v := hv.f.child(values, func() value {
		return &Histogram{bounds: hv.f.buckets, counts: make([]uint64, len(hv.f.buckets))}
	})
	return v.(*Histogram)
}

// child returns (creating if needed) the series for the given label values.
func (f *family) child(values []string, make func() value) value {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s takes %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := labelSuffix(f.labels, values)
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.series[key]
	if !ok {
		v = make()
		f.series[key] = v
	}
	return v
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, "counter", nil, nil)
	return f.child(nil, func() value { return &Counter{} }).(*Counter)
}

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, "counter", labels, nil)}
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, "gauge", nil, nil)
	return f.child(nil, func() value { return &Gauge{} }).(*Gauge)
}

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, "gauge", labels, nil)}
}

// Histogram registers (or fetches) an unlabeled fixed-bucket histogram.
// Buckets must be sorted ascending; the +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, "histogram", nil, buckets)
	return f.child(nil, func() value {
		return &Histogram{bounds: f.buckets, counts: make([]uint64, len(f.buckets))}
	}).(*Histogram)
}

// HistogramVec registers (or fetches) a labeled fixed-bucket histogram
// family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, "histogram", labels, buckets)}
}

// labelSuffix renders `{k="v",...}` (empty for unlabeled series), escaping
// backslash, quote and newline per the exposition format.
func labelSuffix(labels, values []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// labelEscaper is built once: constructing a Replacer costs more than most
// label renderings, and family.child renders on every labelled update.
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
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
	for _, k := range keys {
		switch v := f.series[k].(type) {
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
