// Package spansclient is the consumer half of the obslint span fixture:
// it opens spans across the package boundary, where names must be catalog
// constants and Begin results must be kept.
package spansclient

import "spans"

// Good shows the approved shapes: catalog constants everywhere, every
// Begin paired with an End through its Ref.
func Good(tr *spans.Tracer) {
	ref := tr.Begin(0, spans.SpanAdmit, "job-0001")
	tr.End(1, ref)
	hb := tr.Begin(2, spans.SpanHeartbeat, "")
	tr.End(3, hb)
}

// DynamicName defeats the catalog with a name computed at runtime.
func DynamicName(tr *spans.Tracer, name string) {
	ref := tr.Begin(0, name, "job-0001") // want "span name must be a catalog constant"
	tr.End(1, ref)
}

// NovelLiteral invents a span name the catalog never registered.
func NovelLiteral(tr *spans.Tracer) {
	ref := tr.Begin(0, "made-up", "job-0001") // want "uncataloged span name"
	tr.End(1, ref)
}

// LeakedBegin drops the Ref, so nothing can ever End the span.
func LeakedBegin(tr *spans.Tracer) {
	tr.Begin(0, spans.SpanAdmit, "job-0001")     // want "Begin result discarded"
	_ = tr.Begin(0, spans.SpanAdmit, "job-0001") // want "Begin result discarded"
}

// Suppressed documents a deliberate exception.
func Suppressed(tr *spans.Tracer, name string) {
	ref := tr.Begin(0, name, "job-0001") //eflint:ignore obslint fixture: name validated by the caller before emission
	tr.End(1, ref)
}
