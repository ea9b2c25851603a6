package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// guardedByRe matches the "guarded by <mutex>" field annotation locklint
// checks.
var guardedByRe = regexp.MustCompile(`guarded by (\w+)`)

// This file is the whole-program side of the framework: where analysis.go
// models one analyzer over one package, Program ties every package of one
// load into a single view with a static call graph and the indexes the
// passes share. The interprocedural analyzer (locklint) runs once per
// load through Analyzer.RunProgram and reports through a ProgramPass, which
// routes each diagnostic through the suppression comments of whichever
// package owns the position.

// Program is the whole-program view over one loader's packages.
type Program struct {
	Fset *token.FileSet
	// Packages are all loaded packages (pattern-matched and transitively
	// imported), sorted by import path.
	Packages []*Package

	// byFile maps a source filename to its owning package, for
	// suppression lookup on program-level diagnostics.
	byFile map[string]*Package
	// funcs indexes every declared function and method.
	funcs map[*types.Func]*FuncNode
	// memo caches program-level computations by name (Memo).
	memo map[string]interface{}
}

// FuncNode is one declared function or method in the call graph.
type FuncNode struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls are the statically resolved outgoing calls; Callers the
	// incoming ones. Calls through interfaces, function values and
	// method values are not resolved — analyses over this graph are
	// therefore under-approximations of the dynamic graph and must say
	// so in their diagnostics.
	Calls   []*CallSite
	Callers []*CallSite
}

// Name returns the function's name (without receiver).
func (fn *FuncNode) Name() string { return fn.Obj.Name() }

// CallSite is one static call edge.
type CallSite struct {
	Caller *FuncNode
	Callee *FuncNode
	Site   *ast.CallExpr
}

// NewProgram builds the whole-program view (function index + call graph)
// over the given packages.
func NewProgram(pkgs []*Package) *Program {
	pr := &Program{
		Packages: append([]*Package{}, pkgs...),
		byFile:   make(map[string]*Package),
		funcs:    make(map[*types.Func]*FuncNode),
		memo:     make(map[string]interface{}),
	}
	sort.Slice(pr.Packages, func(i, k int) bool { return pr.Packages[i].PkgPath < pr.Packages[k].PkgPath })
	for _, pkg := range pr.Packages {
		if pr.Fset == nil {
			pr.Fset = pkg.Fset
		}
		for _, f := range pkg.Files {
			pr.byFile[pkg.Fset.Position(f.Pos()).Filename] = pkg
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				pr.funcs[obj] = &FuncNode{Obj: obj, Decl: fd, Pkg: pkg}
			}
		}
	}
	// Second pass: resolve call edges now that every declaration is
	// indexed.
	for _, caller := range pr.funcs {
		if caller.Decl.Body == nil {
			continue
		}
		info := caller.Pkg.Info
		ast.Inspect(caller.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeOf(info, call)
			if obj == nil {
				return true
			}
			callee, ok := pr.funcs[obj]
			if !ok {
				return true // declared outside the loaded program
			}
			edge := &CallSite{Caller: caller, Callee: callee, Site: call}
			caller.Calls = append(caller.Calls, edge)
			callee.Callers = append(callee.Callers, edge)
			return true
		})
	}
	return pr
}

// calleeOf statically resolves a call expression to the function or method
// object it invokes, or nil for dynamic calls (function values, interface
// methods resolve to the interface's method object, which has no body in
// the program and therefore no node).
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// Funcs returns every declared function, sorted by source position — the
// deterministic iteration order program analyzers must use.
func (pr *Program) Funcs() []*FuncNode {
	out := make([]*FuncNode, 0, len(pr.funcs))
	for _, fn := range pr.funcs {
		out = append(out, fn)
	}
	sort.Slice(out, func(i, k int) bool {
		pi, pk := pr.Fset.Position(out[i].Decl.Pos()), pr.Fset.Position(out[k].Decl.Pos())
		if pi.Filename != pk.Filename {
			return pi.Filename < pk.Filename
		}
		return pi.Offset < pk.Offset
	})
	return out
}

// PackageOf returns the package owning the file at pos, or nil.
func (pr *Program) PackageOf(pos token.Pos) *Package {
	if !pos.IsValid() || pr.Fset == nil {
		return nil
	}
	return pr.byFile[pr.Fset.Position(pos).Filename]
}

// Memo caches a program-level computation under a name: the first call runs
// build and stores the result, later calls return it. Shared indexes (the
// guarded-field table, the directive table) are built this way so several
// analyzers pay for them once.
func (pr *Program) Memo(name string, build func() interface{}) interface{} {
	if v, ok := pr.memo[name]; ok {
		return v
	}
	v := build()
	pr.memo[name] = v
	return v
}

// --- Directives -------------------------------------------------------------

// A Directive is one //eflint:<name> <args...> comment attached to a
// declaration (other than the suppression directive, which analysis.go owns).
type Directive struct {
	// Name is the directive name without the "eflint:" prefix, e.g.
	// "lockorder".
	Name string
	// Args are the whitespace-separated arguments after the name.
	Args []string
	Pos  token.Pos
}

// Directives returns every //eflint: directive in the program except
// eflint:ignore, in deterministic (position) order. The table is memoized.
func (pr *Program) Directives() []Directive {
	v := pr.Memo("eflint-directives", func() interface{} {
		var out []Directive
		for _, pkg := range pr.Packages {
			for _, f := range pkg.Files {
				for _, cg := range f.Comments {
					for _, c := range cg.List {
						text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
						rest, ok := strings.CutPrefix(text, "eflint:")
						if !ok || strings.HasPrefix(rest, "ignore") {
							continue
						}
						fields := strings.Fields(rest)
						if len(fields) == 0 {
							continue
						}
						out = append(out, Directive{Name: fields[0], Args: fields[1:], Pos: c.Pos()})
					}
				}
			}
		}
		sort.Slice(out, func(i, k int) bool {
			pi, pk := pr.Fset.Position(out[i].Pos), pr.Fset.Position(out[k].Pos)
			if pi.Filename != pk.Filename {
				return pi.Filename < pk.Filename
			}
			return pi.Offset < pk.Offset
		})
		return out
	})
	return v.([]Directive)
}

// --- Guarded-field index ----------------------------------------------------

// GuardedField is the index entry for one "guarded by <mutex>" field:
// the qualified name of the mutex that must be held to touch it.
type GuardedField struct {
	// Mutex is the qualified mutex name, e.g. "serverless.Platform.mu".
	Mutex string
	// MutexField is the bare sibling field name the annotation names.
	MutexField string
	// Orphan marks an annotation that names no sibling field: a typo no
	// lock can satisfy, which locklint reports instead of checking.
	Orphan bool
}

// GuardedFields indexes every "guarded by <mutex>" annotation across the
// program, keyed by the field object. It is memoized.
func (pr *Program) GuardedFields() map[types.Object]GuardedField {
	v := pr.Memo("guarded-fields", func() interface{} {
		out := make(map[types.Object]GuardedField)
		for _, pkg := range pr.Packages {
			for _, f := range pkg.Files {
				collectGuardedInFile(pr, pkg, f, out)
			}
		}
		return out
	})
	return v.(map[types.Object]GuardedField)
}

func collectGuardedInFile(pr *Program, pkg *Package, f *ast.File, out map[types.Object]GuardedField) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			structQ := pkg.Types.Name() + "." + ts.Name.Name
			siblings := map[string]bool{}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					siblings[name.Name] = true
				}
			}
			for _, field := range st.Fields.List {
				mutex := guardAnnotationOf(field)
				if mutex == "" {
					continue
				}
				for _, name := range field.Names {
					obj := pkg.Info.Defs[name]
					if obj == nil {
						continue
					}
					gf := GuardedField{
						Mutex:      structQ + "." + mutex,
						MutexField: mutex,
						Orphan:     !siblings[mutex],
					}
					out[obj] = gf
				}
			}
		}
	}
}

// guardAnnotationOf extracts the mutex name from a field's doc or trailing
// comment.
func guardAnnotationOf(f *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// QualifiedMutex renders the lock-identity key for a mutex held through a
// selector like p.mu: the receiver's package name, type name and field name
// joined by dots ("serverless.Platform.mu"). It returns "" when the
// receiver cannot be statically resolved to a named struct field.
func QualifiedMutex(info *types.Info, sel ast.Expr) string {
	s, ok := ast.Unparen(sel).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	selection, ok := info.Selections[s]
	if !ok || selection.Kind() != types.FieldVal {
		return ""
	}
	recv := selection.Recv()
	for {
		p, ok := recv.(*types.Pointer)
		if !ok {
			break
		}
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + selection.Obj().Name()
}

// --- ProgramPass ------------------------------------------------------------

// ProgramPass connects one program-level analyzer run to the whole loaded
// program.
type ProgramPass struct {
	Analyzer *Analyzer
	Program  *Program

	diags []Diagnostic
}

// NewProgramPass prepares a pass for one program analyzer.
func NewProgramPass(a *Analyzer, pr *Program) *ProgramPass {
	return &ProgramPass{Analyzer: a, Program: pr}
}

// Reportf records a finding at pos unless an //eflint:ignore comment in the
// owning package covers it, or the owning package is outside the analyzer's
// Scope.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...interface{}) {
	pkg := p.Program.PackageOf(pos)
	if pkg == nil {
		return
	}
	if p.Analyzer.Scope != nil && pkg.RelPath != "-" && !p.Analyzer.Scope(pkg.RelPath) {
		return
	}
	position := pkg.Fset.Position(pos)
	for _, s := range pkg.suppressions() {
		if !s.ok || s.file != position.Filename {
			continue
		}
		if s.line != position.Line && s.line+1 != position.Line {
			continue
		}
		if s.analyzer == "*" || s.analyzer == p.Analyzer.Name {
			return
		}
	}
	p.diags = append(p.diags, Diagnostic{Pos: position, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Diagnostics returns the findings reported so far, sorted by position.
func (p *ProgramPass) Diagnostics() []Diagnostic {
	SortDiagnostics(p.diags)
	return p.diags
}
