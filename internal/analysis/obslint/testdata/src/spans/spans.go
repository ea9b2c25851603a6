// Package spans is the catalog half of the obslint span fixture: a stub of
// the tracing package with the named Tracer type obslint resolves span
// calls by, and the string constants that form its span catalog.
package spans

// The span catalog: every string constant in the tracer's package.
const (
	SpanAdmit     = "admit"
	SpanRescale   = "rescale"
	SpanHeartbeat = "heartbeat"
)

// Ref identifies an open span.
type Ref uint64

// Tracer is the stub tracer.
type Tracer struct{}

// Begin opens a span and returns its Ref.
func (t *Tracer) Begin(now float64, name, jobID string) Ref { return 0 }

// End closes a span.
func (t *Tracer) End(now float64, ref Ref) {}

// BeginRoot opens a span with no job. Forwarding the dynamic name to Begin
// here is legal: the tracer's own package is exempt from the
// catalog-constant rule.
func (t *Tracer) BeginRoot(now float64, name string) Ref {
	return t.Begin(now, name, "")
}
