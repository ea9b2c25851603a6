// Package analysis is a self-contained static-analysis framework for this
// repository, modeled on golang.org/x/tools/go/analysis but built only on
// the standard library's go/ast, go/parser and go/types. It exists because
// ElasticFlow's value proposition is a guarantee — admitted jobs meet their
// deadlines — and guarantees die by a thousand nondeterminisms and data
// races that no amount of diff-reading catches reliably. The analyzers under
// internal/analysis/{detlint,floatlint,errlint,locklint,obslint} encode the
// repo's invariants; cmd/eflint is the multichecker driver.
//
// # Suppressions
//
// A finding can be silenced with a comment on the same line or on the line
// directly above it:
//
//	//eflint:ignore <analyzer> <reason...>
//
// The analyzer name may be "*" to silence every analyzer. The reason is
// mandatory: a suppression without one does not suppress, and the driver
// reports it as malformed. Suppressed findings are deliberate, documented
// exceptions; ROADMAP.md records the ones that should eventually be fixed.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppressions.
	Name string
	// Doc is a one-paragraph description of what the analyzer reports.
	Doc string
	// Scope, when non-nil, restricts which packages of the module under
	// analysis the analyzer runs on; it receives the package's import
	// path relative to the module root (e.g. "internal/sim", "" for the
	// module root package). Packages outside the module — in practice
	// only analysistest fixtures — are always in scope. For program
	// analyzers the whole load is still visible (call graphs need it);
	// Scope filters where diagnostics may land.
	Scope func(relPath string) bool
	// Run performs a per-package check, reporting findings through the
	// pass. Exactly one of Run and RunProgram must be set.
	Run func(*Pass) error
	// RunProgram performs a whole-program (interprocedural, cross-package)
	// check over everything one driver invocation loaded. It runs once
	// per load, after all packages are type-checked.
	RunProgram func(*ProgramPass) error
}

// A Pass connects one analyzer run to one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed source files, sorted by file name.
	Files []*ast.File
	// Pkg and Info are the type-checker's outputs.
	Pkg  *types.Package
	Info *types.Info
	// PkgPath is the package's import path; ModulePath is the module the
	// driver is analyzing (empty under analysistest, where every loaded
	// package counts as module-local).
	PkgPath    string
	ModulePath string

	diags       []Diagnostic
	suppressors []suppression
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// suppression is one parsed //eflint:ignore comment.
type suppression struct {
	file     string
	line     int // the commented line; it also covers line+1
	analyzer string
	ok       bool // well-formed (has analyzer name and reason)
	pos      token.Position
}

// IgnoreDirective is the comment prefix that suppresses findings.
const IgnoreDirective = "eflint:ignore"

// Reportf records a finding at pos unless an //eflint:ignore comment covers
// it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	for _, s := range p.suppressors {
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

// ModuleLocal reports whether path names a package in the module under
// analysis. Under analysistest ModulePath is empty and every package loaded
// from the fixture tree counts as module-local.
func (p *Pass) ModuleLocal(path string) bool {
	if p.ModulePath == "" {
		return !isStdlibPath(path)
	}
	return path == p.ModulePath || strings.HasPrefix(path, p.ModulePath+"/")
}

// isStdlibPath distinguishes standard-library import paths by the absence of
// a dot in the first path element — the same heuristic the go command uses.
func isStdlibPath(path string) bool {
	first := path
	if i := strings.IndexByte(path, '/'); i >= 0 {
		first = path[:i]
	}
	return !strings.Contains(first, ".")
}

// NewPass prepares a pass for one analyzer over one loaded package,
// collecting its suppression comments.
func NewPass(a *Analyzer, pkg *Package) *Pass {
	p := &Pass{
		Analyzer:   a,
		Fset:       pkg.Fset,
		Files:      pkg.Files,
		Pkg:        pkg.Types,
		Info:       pkg.Info,
		PkgPath:    pkg.PkgPath,
		ModulePath: pkg.ModulePath,
	}
	p.suppressors = pkg.suppressions()
	return p
}

// suppressions extracts every //eflint:ignore comment of the package. The
// result is cached on the package since each analyzer pass needs it.
func (pkg *Package) suppressions() []suppression {
	if pkg.supp != nil {
		return pkg.supp
	}
	supp := []suppression{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, IgnoreDirective) {
					continue
				}
				rest := strings.TrimPrefix(text, IgnoreDirective)
				fields := strings.Fields(rest)
				pos := pkg.Fset.Position(c.Pos())
				s := suppression{file: pos.Filename, line: pos.Line, pos: pos}
				// Well-formed: an analyzer name plus a non-empty reason.
				if len(fields) >= 2 {
					s.analyzer = fields[0]
					s.ok = true
				}
				supp = append(supp, s)
			}
		}
	}
	pkg.supp = supp
	return supp
}

// MalformedSuppressions returns a diagnostic for every //eflint:ignore
// comment that lacks an analyzer name or a reason. The driver reports these
// under the pseudo-analyzer "eflint" so that a typo never silently disables
// a real check.
func (pkg *Package) MalformedSuppressions() []Diagnostic {
	var out []Diagnostic
	for _, s := range pkg.suppressions() {
		if !s.ok {
			out = append(out, Diagnostic{
				Pos:      s.pos,
				Analyzer: "eflint",
				Message:  fmt.Sprintf("malformed //%s comment: want //%s <analyzer> <reason>", IgnoreDirective, IgnoreDirective),
			})
		}
	}
	return out
}

// Diagnostics returns the findings reported so far, sorted by position.
func (p *Pass) Diagnostics() []Diagnostic {
	SortDiagnostics(p.diags)
	return p.diags
}

// SortDiagnostics orders diagnostics by file, line, column, analyzer and
// message — the stable order every driver prints in.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, k int) bool {
		a, b := diags[i], diags[k]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
