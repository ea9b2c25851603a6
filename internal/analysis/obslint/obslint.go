// Package obslint keeps the metric catalog honest. The observability
// convention: every ef_* series is registered exactly once, in the package
// that declares the Registry type (the catalog package), with a literal
// name and literal label names; everything else merely references it.
//
// Four checks:
//
//   - Registrations (Counter/CounterVec/Gauge/Histogram/HistogramVec calls
//     on a Registry) outside the catalog package are errors: a stray
//     registration bypasses the catalog and its review.
//   - Conflicting re-registration — the same name with a different method
//     kind or label set — is an error at the later site (the registry
//     panics at runtime; obslint reports it at build time).
//   - Every ef_name{label,...} written in a struct field comment must match
//     a cataloged series: name registered, label names identical. A
//     name-only reference (no braces) just needs the name to exist.
//   - Every .With(values...) call whose receiver is a struct field
//     annotated with ef_name{...} must pass exactly as many label values
//     as the series registered. The registry panics on mismatch at
//     runtime; obslint reports it at build time.
//
// Names and labels that are not string literals defeat every one of these
// checks and are reported directly. With-calls on unannotated receivers
// (locals, parameters) are invisible — annotate the field to opt in.
//
// The span catalog gets the same treatment as the metric catalog. The
// tracing convention: every span name is a Span* string constant declared
// in the package that declares the Tracer type, so trace consumers
// (the Chrome encoder, dashboards, the golden-trail tests) can rely on a
// closed name set. Point spans are derived from events through package
// obs's kind→span table, so the call sites left to check open interval
// spans. Two checks:
//
//   - The name argument of a Begin call on a Tracer, outside the tracer's
//     own package, must be a constant whose value is cataloged there.
//     Dynamic names and novel literals are both errors.
//   - A Begin call whose Ref result is discarded (statement position or
//     assigned to _) is an error: the span can never be ended, so it leaks
//     open in every trail.
package obslint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
	"strings"

	"github.com/elasticflow/elasticflow/internal/analysis"
)

// Analyzer is the obslint analyzer.
var Analyzer = &analysis.Analyzer{
	Name:       "obslint",
	Doc:        "ef_* metric series and tracing spans: registrations and span names live in their catalog packages, label arity and span lifecycles are checked at every call site",
	RunProgram: run,
}

// registerMethods maps each Registry registration method to the argument
// index where its label names start (after name, help and, for histograms,
// buckets). Unlabeled kinds have no label arguments.
var registerMethods = map[string]int{
	"Counter":      -1,
	"Gauge":        -1,
	"Histogram":    -1,
	"CounterVec":   2,
	"GaugeVec":     2,
	"HistogramVec": 3,
}

// seriesRe matches one ef_* series reference in a comment, with optional
// {label,...}. A reference immediately followed by * (as in "the ef_store_*
// family") is prose, not a reference, and is skipped by the caller.
var seriesRe = regexp.MustCompile(`ef_[a-z0-9_]+(\{[^}]*\})?`)

// series is one cataloged metric family.
type series struct {
	name   string
	method string   // registering method name
	labels []string // label names, in order
}

func run(pass *analysis.ProgramPass) error {
	c := &catalog{pass: pass, entries: make(map[string]*series)}
	c.collect()
	c.checkComments()
	c.checkWithCalls()
	c.checkSpanCalls()
	return nil
}

type catalog struct {
	pass    *analysis.ProgramPass
	entries map[string]*series
	// fields maps annotated struct fields to their referenced series name.
	fields map[types.Object]string
	// spans caches, per tracer package, the set of span-name constant
	// values it declares.
	spans map[*types.Package]map[string]bool
}

// registryCallee resolves a call to a Registry registration method and
// returns the method object, or nil.
func registryCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fn := analysis.CalleeOf(info, call)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	if _, ok := registerMethods[fn.Name()]; !ok {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != "Registry" {
		return nil
	}
	return fn
}

// litString unwraps a string literal argument.
func litString(e ast.Expr) (string, bool) {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// collect walks every function in source order building the catalog and
// reporting stray and conflicting registrations as it goes.
func (c *catalog) collect() {
	for _, fn := range c.pass.Program.Funcs() {
		if fn.Decl.Body == nil {
			continue
		}
		info := fn.Pkg.Info
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			m := registryCallee(info, call)
			if m == nil || len(call.Args) == 0 {
				return true
			}
			name, ok := litString(call.Args[0])
			if !ok {
				if maybeEf(call.Args[0]) {
					c.pass.Reportf(call.Pos(), "metric name must be a string literal so obslint can check it against the catalog")
				}
				return true
			}
			if !strings.HasPrefix(name, "ef_") {
				return true
			}
			if fn.Pkg.Types != m.Pkg() {
				c.pass.Reportf(call.Pos(), "ef_* series %s registered outside the catalog package %s: add it to the catalog so every dashboard and test can rely on one registration point", name, m.Pkg().Name())
				return true
			}
			labelStart := registerMethods[m.Name()]
			var labels []string
			if labelStart >= 0 {
				for _, a := range call.Args[labelStart:] {
					l, ok := litString(a)
					if !ok {
						c.pass.Reportf(a.Pos(), "label names of %s must be string literals so obslint can check With calls against them", name)
						return true
					}
					labels = append(labels, l)
				}
			}
			if prev, ok := c.entries[name]; ok {
				if prev.method != m.Name() || !sameLabels(prev.labels, labels) {
					c.pass.Reportf(call.Pos(), "conflicting registration of %s: previously %s%s, here %s%s (the registry panics on this at runtime)",
						name, prev.method, labelList(prev.labels), m.Name(), labelList(labels))
				}
				return true
			}
			c.entries[name] = &series{name: name, method: m.Name(), labels: labels}
			return true
		})
	}
}

// maybeEf reports whether a non-literal name expression could plausibly be
// an ef_* name — a conservative filter so only the metric-shaped dynamic
// names are reported, not unrelated string plumbing.
func maybeEf(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(s, "ef_") {
				found = true
			}
		}
		return true
	})
	return found
}

func sameLabels(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func labelList(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	return "{" + strings.Join(labels, ",") + "}"
}

// checkComments validates every ef_* reference written in a struct field
// comment against the catalog, and records the field→series binding that
// checkWithCalls consumes.
func (c *catalog) checkComments() {
	c.fields = make(map[types.Object]string)
	for _, pkg := range c.pass.Program.Packages {
		for _, f := range pkg.Files {
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
					for _, field := range st.Fields.List {
						c.checkFieldComment(pkg, field)
					}
				}
			}
		}
	}
}

func (c *catalog) checkFieldComment(pkg *analysis.Package, field *ast.Field) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		text := cg.Text()
		loc := seriesRe.FindStringIndex(text)
		if loc == nil {
			continue
		}
		// "ef_store_*" style prose names a family glob, not a series.
		if loc[1] < len(text) && text[loc[1]] == '*' {
			continue
		}
		ref := text[loc[0]:loc[1]]
		name, labels := splitRef(ref)
		entry, ok := c.entries[name]
		if !ok {
			c.pass.Reportf(cg.Pos(), "field comment references unregistered series %s: register it in the catalog or fix the name", name)
			return
		}
		if labels != nil && !sameLabels(entry.labels, labels) {
			c.pass.Reportf(cg.Pos(), "field comment says %s but the catalog registered labels %s", ref, fmt.Sprintf("%s%s", name, labelList(entry.labels)))
			return
		}
		for _, fname := range field.Names {
			if obj := pkg.Info.Defs[fname]; obj != nil {
				c.fields[obj] = name
			}
		}
		return
	}
}

// splitRef splits "ef_a_total{kind,op}" into name and label names; labels
// is nil (not empty) when the reference has no brace part.
func splitRef(ref string) (string, []string) {
	i := strings.IndexByte(ref, '{')
	if i < 0 {
		return ref, nil
	}
	name := ref[:i]
	body := strings.TrimSuffix(ref[i+1:], "}")
	if body == "" {
		return name, []string{}
	}
	parts := strings.Split(body, ",")
	for k := range parts {
		parts[k] = strings.TrimSpace(parts[k])
	}
	return name, parts
}

// checkWithCalls verifies label-value arity at every With call whose
// receiver is a field bound to a cataloged series.
func (c *catalog) checkWithCalls() {
	for _, fn := range c.pass.Program.Funcs() {
		if fn.Decl.Body == nil {
			continue
		}
		info := fn.Pkg.Info
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "With" {
				return true
			}
			recv, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selection, ok := info.Selections[recv]
			if !ok || selection.Kind() != types.FieldVal {
				return true
			}
			name, ok := c.fields[selection.Obj()]
			if !ok {
				return true
			}
			entry := c.entries[name]
			if call.Ellipsis.IsValid() {
				return true // With(values...) arity is dynamic
			}
			if len(call.Args) != len(entry.labels) {
				c.pass.Reportf(call.Pos(), "%s takes %d label value(s) %s, got %d (the registry panics on this at runtime)",
					name, len(entry.labels), labelList(entry.labels), len(call.Args))
			}
			return true
		})
	}
}

// tracerBegin resolves a call to Tracer.Begin and returns the method
// object, or nil.
func tracerBegin(info *types.Info, call *ast.CallExpr) *types.Func {
	fn := analysis.CalleeOf(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Name() != "Begin" {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != "Tracer" {
		return nil
	}
	return fn
}

// spanNames returns the span catalog of a tracer package: the values of
// every package-level string constant it declares (the Span* names).
func (c *catalog) spanNames(pkg *types.Package) map[string]bool {
	if s, ok := c.spans[pkg]; ok {
		return s
	}
	s := make(map[string]bool)
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		cn, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		if b, ok := cn.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
			s[constant.StringVal(cn.Val())] = true
		}
	}
	c.spans[pkg] = s
	return s
}

// checkSpanCalls walks every function checking span names against the span
// catalog and flagging Begin calls whose Ref result is discarded.
func (c *catalog) checkSpanCalls() {
	c.spans = make(map[*types.Package]map[string]bool)
	for _, fn := range c.pass.Program.Funcs() {
		if fn.Decl.Body == nil {
			continue
		}
		info := fn.Pkg.Info
		local := fn.Pkg.Types
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
					c.checkDiscardedBegin(info, call)
				}
			case *ast.AssignStmt:
				if len(st.Lhs) != len(st.Rhs) {
					return true
				}
				for i, rhs := range st.Rhs {
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok {
						continue
					}
					if id, ok := st.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
						c.checkDiscardedBegin(info, call)
					}
				}
			case *ast.CallExpr:
				c.checkSpanName(info, local, st)
			}
			return true
		})
	}
}

// checkSpanName validates the name argument of one Begin call: outside the
// tracer's own package it must be a constant whose value the tracer package
// catalogs.
func (c *catalog) checkSpanName(info *types.Info, local *types.Package, call *ast.CallExpr) {
	m := tracerBegin(info, call)
	if m == nil || local == m.Pkg() || len(call.Args) < 2 {
		return
	}
	arg := call.Args[1]
	tv, ok := info.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		c.pass.Reportf(arg.Pos(), "span name must be a catalog constant from package %s so trace consumers can rely on a closed name set", m.Pkg().Name())
		return
	}
	if name := constant.StringVal(tv.Value); !c.spanNames(m.Pkg())[name] {
		c.pass.Reportf(arg.Pos(), "uncataloged span name %q: declare it as a constant in package %s so the span catalog stays closed", name, m.Pkg().Name())
	}
}

// checkDiscardedBegin reports a Begin call whose Ref result is thrown away:
// nothing can End that span, so it leaks open in every trail.
func (c *catalog) checkDiscardedBegin(info *types.Info, call *ast.CallExpr) {
	if tracerBegin(info, call) == nil {
		return
	}
	c.pass.Reportf(call.Pos(), "Begin result discarded: the span can never be ended and leaks open in the trail — keep the Ref and End it, or publish an obs event for an instantaneous transition")
}
