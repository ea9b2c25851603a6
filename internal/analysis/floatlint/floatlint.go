// Package floatlint reports == and != between floating-point expressions in
// the deadline/GPU-time arithmetic packages (internal/{core,sched,plan}).
// Exact float equality there is almost always a latent bug: slot
// arithmetic, throughput curves and deadline slack all accumulate rounding,
// so two mathematically equal quantities compare unequal — and a scheduling
// decision silently flips. Use core.AtMost (the shared epsilon helper) for
// "fits within", or rewrite comparators with < and > so ties fall through to
// a deterministic key.
//
// Comparisons against compile-time constants (x == 0 sentinels, option
// defaults) are exempt: they test "was this field ever set", not numeric
// equality of computed values.
package floatlint

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/elasticflow/elasticflow/internal/analysis"
)

// Analyzer is the floatlint analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "floatlint",
	Doc:  "reports ==/!= between computed floating-point expressions in deadline/GPU-time math; use core.AtMost or ordered comparisons",
	Scope: analysis.ScopePackages(
		"internal/core", "internal/sched", "internal/plan",
	),
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !isComputedFloat(pass, be.X) || !isComputedFloat(pass, be.Y) {
				return true
			}
			pass.Reportf(be.OpPos, "float %s float compares exact binary representations; use core.AtMost or ordered comparisons (< / >)", be.Op)
			return true
		})
	}
	return nil
}

// isComputedFloat reports whether x is a non-constant expression of floating
// type.
func isComputedFloat(pass *analysis.Pass, x ast.Expr) bool {
	tv, ok := pass.Info.Types[x]
	if !ok || tv.Type == nil || tv.Value != nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
