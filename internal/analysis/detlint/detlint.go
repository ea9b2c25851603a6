// Package detlint reports the three ways simulator runs silently stop being
// bit-for-bit reproducible (EXPERIMENTS.md):
//
//  1. wall-clock reads — time.Now/Since/Until — where only simulated time
//     may flow;
//  2. the global math/rand source (rand.Intn, rand.Float64, …) instead of a
//     seeded *rand.Rand threaded explicitly;
//  3. iteration over a map whose body appends to a slice that is not
//     deterministically sorted afterwards in the same statement list — Go
//     randomizes map order per run, so admission order, event order and CSV
//     output built this way differ between identical seeds.
//
// It runs on the simulation-facing packages (internal/{sim,sched,core,
// trace,elastic,baselines,experiments}) and on the durable-state
// packages (internal/store, internal/faults), whose replay and fault
// schedules must be as reproducible as the simulator; the live control
// plane (internal/agent, internal/serverless) legitimately reads wall
// clocks.
package detlint

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/elasticflow/elasticflow/internal/analysis"
)

// Analyzer is the detlint analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "detlint",
	Doc:  "reports nondeterminism hazards (wall clocks, global math/rand, unsorted map iteration) in simulation-facing packages",
	Scope: analysis.ScopePackages(
		"internal/sim", "internal/sched", "internal/core",
		"internal/trace", "internal/elastic", "internal/baselines", "internal/experiments",
		"internal/store", "internal/faults",
	),
	Run: run,
}

// seededConstructors are the math/rand entry points that build an explicit
// generator; everything else at package level draws from the global source.
var seededConstructors = map[string]bool{"New": true, "NewSource": true}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.BlockStmt:
				checkStmtList(pass, n.List)
			case *ast.CaseClause:
				checkStmtList(pass, n.Body)
			case *ast.CommClause:
				checkStmtList(pass, n.Body)
			}
			return true
		})
	}
	return nil
}

// checkCall flags wall-clock reads and global math/rand draws.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			pass.Reportf(call.Pos(), "time.%s reads the wall clock in a simulation-facing package; only simulated time may flow here", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !seededConstructors[fn.Name()] {
			pass.Reportf(call.Pos(), "global math/rand.%s breaks reproducibility; thread a seeded *rand.Rand explicitly", fn.Name())
		}
	}
}

// checkStmtList looks, within one statement list, for map-range loops whose
// bodies append to outer slices, and requires a deterministic sort of each
// such slice in a later statement of the same list.
func checkStmtList(pass *analysis.Pass, stmts []ast.Stmt) {
	for i, stmt := range stmts {
		rs, ok := stmt.(*ast.RangeStmt)
		if !ok || !isMapType(pass, rs.X) {
			continue
		}
		for _, target := range appendTargets(pass, rs) {
			if sortedLater(pass, stmts[i+1:], target.obj) {
				continue
			}
			pass.Reportf(target.pos, "append to %q inside iteration over map %s without a deterministic sort afterwards; map order is randomized per run", target.obj.Name(), exprString(rs.X))
		}
	}
}

func isMapType(pass *analysis.Pass, x ast.Expr) bool {
	tv, ok := pass.Info.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

type appendTarget struct {
	obj types.Object
	pos token.Pos
}

// appendTargets returns the outer-declared variables the range body appends
// to.
func appendTargets(pass *analysis.Pass, rs *ast.RangeStmt) []appendTarget {
	var out []appendTarget
	seen := make(map[types.Object]bool)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isBuiltinAppend(pass, call) || i >= len(as.Lhs) {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.Info.Uses[id]
			if obj == nil {
				obj = pass.Info.Defs[id]
			}
			if obj == nil || seen[obj] {
				continue
			}
			// Only variables that outlive the loop matter: anything
			// declared inside the range body resets every iteration.
			if obj.Pos() >= rs.Pos() && obj.Pos() < rs.End() {
				continue
			}
			seen[obj] = true
			out = append(out, appendTarget{obj: obj, pos: as.Pos()})
		}
		return true
	})
	return out
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// sortedLater reports whether any following statement calls a sort/slices
// function with obj among its arguments.
func sortedLater(pass *analysis.Pass, rest []ast.Stmt, obj types.Object) bool {
	for _, stmt := range rest {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgID, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pass.Info.Uses[pkgID].(*types.PkgName)
			if !ok {
				return true
			}
			path := pn.Imported().Path()
			if path != "sort" && path != "slices" {
				return true
			}
			for _, arg := range call.Args {
				if mentions(pass, arg, obj) {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

func mentions(pass *analysis.Pass, x ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(x, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

func exprString(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	default:
		return "<expr>"
	}
}
