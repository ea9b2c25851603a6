// Package errs is the errlint golden fixture. Its import path carries a dot
// (example.com/errs) so the analyzer classifies it as module-local, the way
// real repo packages are.
package errs

import (
	"fmt"

	"example.com/obs/tracing"
)

func restore() error { return nil }

func place() (int, error) { return 0, nil }

func count() int { return 3 }

func discardStmt() {
	restore() // want "errs.restore returns an error that is discarded"
}

func blank() {
	_ = restore() // want "error result of errs.restore assigned to _"
}

func blankMulti() {
	n, _ := place() // want "error result of errs.place assigned to _"
	use(n)
}

func inGoroutine() {
	go restore() // want "errs.restore returns an error that is discarded"
}

func deferred() {
	defer restore() // want "errs.restore returns an error that is discarded"
}

// handled checks every error: compliant.
func handled() error {
	if err := restore(); err != nil {
		return err
	}
	n, err := place()
	use(n)
	return err
}

// stdlibDiscard is go vet's jurisdiction, not errlint's.
func stdlibDiscard() {
	fmt.Println("x")
}

// nonError discards an int, which is fine.
func nonError() {
	count()
}

// suppressed demonstrates a documented exception.
func suppressed() {
	//eflint:ignore errlint fixture demonstrating a documented exception
	restore()
}

// Ref is not tracing.Ref: dropping it is fine.
type Ref struct{}

func localRef() Ref { return Ref{} }

func spans(tr *tracing.Tracer) {
	tr.Begin("epoch")     // want "tracing.Begin returns a tracing.Ref that is discarded"
	_ = tr.Begin("epoch") // want "tracing.Ref result of tracing.Begin assigned to _"
	ref := tr.Begin("epoch")
	tr.End(ref)
	localRef()
}

func use(int) {}
