// Package errlint reports discarded error returns from functions defined in
// this module — stricter than go vet's errcheck-lite, which only knows a
// fixed list of standard-library functions. In a platform whose checkpoint/
// restore, placement and admission paths all signal failure through errors,
// a silently dropped error means a job that thinks it migrated but didn't,
// or a placement that half-happened.
//
// A tracing.Ref — the named type Ref of a package whose path ends in
// /obs/tracing — is held to the same rule: it is the only handle that can
// End the interval span Begin opened, so a discarded one leaves that span
// open in every trail.
//
// Two shapes are flagged, whether the callee is module-local:
//
//	pool.Apply(alloc)            // call statement discarding all results
//	_ = ctrl.Stop(id)            // blank assignment of an error result
//	go a.Serve(l); defer c.Close // go/defer with discarded module errors
//
// Standard-library and third-party callees are vet's business, not ours.
package errlint

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/elasticflow/elasticflow/internal/analysis"
)

// Analyzer is the errlint analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "errlint",
	Doc:  "reports discarded error and tracing.Ref results from functions defined in this module",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDiscardedCall(pass, call)
				}
			case *ast.GoStmt:
				checkDiscardedCall(pass, n.Call)
			case *ast.DeferStmt:
				checkDiscardedCall(pass, n.Call)
			case *ast.AssignStmt:
				checkBlankAssign(pass, n)
			}
			return true
		})
	}
	return nil
}

// moduleCallee resolves call to a function or method defined in the module
// under analysis, or nil.
func moduleCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := pass.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || !pass.ModuleLocal(fn.Pkg().Path()) {
		return nil
	}
	return fn
}

// mustUseKinds returns, per result of fn's signature, the name of its type
// if no caller may drop it ("error" or "tracing.Ref"), else "".
func mustUseKinds(fn *types.Func) []string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	kinds := make([]string, sig.Results().Len())
	for i := range kinds {
		kinds[i] = mustUse(sig.Results().At(i).Type())
	}
	return kinds
}

var errorType = types.Universe.Lookup("error").Type()

// mustUse names t if a result of that type must not be dropped, else "".
func mustUse(t types.Type) string {
	if types.Identical(t, errorType) {
		return "error"
	}
	if n, ok := t.(*types.Named); ok && n.Obj().Name() == "Ref" && n.Obj().Pkg() != nil &&
		strings.HasSuffix(n.Obj().Pkg().Path(), "/obs/tracing") {
		return "tracing.Ref"
	}
	return ""
}

// checkDiscardedCall flags a statement-position call (plain, go or defer)
// whose module-local callee returns an error or a Ref nobody looks at.
func checkDiscardedCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := moduleCallee(pass, call)
	if fn == nil {
		return
	}
	for _, kind := range mustUseKinds(fn) {
		if kind != "" {
			what := "a " + kind
			if kind == "error" {
				what = "an error"
			}
			pass.Reportf(call.Pos(), "%s.%s returns %s that is discarded", fn.Pkg().Name(), fn.Name(), what)
			return
		}
	}
}

// checkBlankAssign flags assignments that route a module-local error or Ref
// result into the blank identifier: _ = f() and v, _ := f() where the _
// position is that result.
func checkBlankAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	fn := moduleCallee(pass, call)
	if fn == nil {
		return
	}
	kinds := mustUseKinds(fn)
	for i, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" && i < len(kinds) && kinds[i] != "" {
			pass.Reportf(id.Pos(), "%s result of %s.%s assigned to _", kinds[i], fn.Pkg().Name(), fn.Name())
		}
	}
}
