// Package guardlint mechanically checks the repo's "// guarded by <mutex>"
// convention: a struct field whose declaration carries that comment may only
// be read or written
//
//   - inside a function whose body locks the named mutex (a call to
//     x.<mutex>.Lock() or x.<mutex>.RLock()), or
//   - inside a function whose name ends in "Locked" — the convention for
//     helpers documented as requiring the caller to hold the lock.
//
// The annotation names a sibling field of the same struct (sync.Mutex or
// sync.RWMutex); an annotation whose mutex does not exist is itself
// reported. The check is intraprocedural and deliberately conservative: it
// does not prove the Lock dominates the access, it proves the function is at
// least aware of the lock. Shared state in internal/agent,
// internal/serverless and internal/frontdoor carries these annotations.
package guardlint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"github.com/elasticflow/elasticflow/internal/analysis"
)

// Analyzer is the guardlint analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "guardlint",
	Doc:  "reports access to '// guarded by <mutex>' struct fields outside functions that lock the named mutex (or are *Locked helpers)",
	Run:  run,
}

var guardedRe = regexp.MustCompile(`guarded by (\w+)`)

// guard records one annotated field.
type guard struct {
	mutex string
}

func run(pass *analysis.Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, guards, fd)
		}
	}
	return nil
}

// collectGuards finds annotated fields, validating that the named mutex is a
// sibling field.
func collectGuards(pass *analysis.Pass) map[types.Object]guard {
	guards := make(map[types.Object]guard)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			fieldNames := make(map[string]bool)
			for _, f := range st.Fields.List {
				for _, name := range f.Names {
					fieldNames[name.Name] = true
				}
			}
			for _, f := range st.Fields.List {
				mutex := guardAnnotation(f)
				if mutex == "" {
					continue
				}
				if !fieldNames[mutex] {
					pass.Reportf(f.Pos(), "'guarded by %s' names no field of this struct", mutex)
					continue
				}
				for _, name := range f.Names {
					if obj := pass.Info.Defs[name]; obj != nil {
						guards[obj] = guard{mutex: mutex}
					}
				}
			}
			return true
		})
	}
	return guards
}

// guardAnnotation extracts the mutex name from a field's doc or trailing
// comment.
func guardAnnotation(f *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// checkFunc reports accesses to guarded fields inside fd when fd neither
// locks the guarding mutex nor is a *Locked helper.
func checkFunc(pass *analysis.Pass, guards map[types.Object]guard, fd *ast.FuncDecl) {
	if strings.HasSuffix(fd.Name.Name, "Locked") {
		return
	}
	locked := lockedMutexes(pass, fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pass.Info.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		obj := selection.Obj()
		g, guarded := guards[obj]
		if !guarded || locked[g.mutex] {
			return true
		}
		pass.Reportf(sel.Sel.Pos(), "%s is guarded by %s, but %s neither locks it nor is a *Locked helper", obj.Name(), g.mutex, fd.Name.Name)
		return true
	})
}

// lockedMutexes returns the names of mutex fields the body calls
// .Lock/.RLock on (through any receiver chain, e.g. p.mu.Lock or mu.Lock).
func lockedMutexes(pass *analysis.Pass, body *ast.BlockStmt) map[string]bool {
	out := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if name := sel.Sel.Name; name != "Lock" && name != "RLock" {
			return true
		}
		switch x := sel.X.(type) {
		case *ast.SelectorExpr:
			out[x.Sel.Name] = true
		case *ast.Ident:
			out[x.Name] = true
		}
		return true
	})
	return out
}
