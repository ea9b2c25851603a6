// Package tracing stands in for the span tracer: errlint matches a Ref by
// its name and a package path ending in /obs/tracing.
package tracing

// Ref names an open span.
type Ref struct{ id uint64 }

// Tracer opens interval spans.
type Tracer struct{}

// Begin opens a span; only End closes it.
func (t *Tracer) Begin(name string) Ref { return Ref{} }

// End closes the span ref names.
func (t *Tracer) End(ref Ref) {}
