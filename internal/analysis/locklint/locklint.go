// Package locklint checks the repo's "// guarded by <mutex>" convention, from
// the access up through the whole program. The annotation names a sibling
// field of the same struct (sync.Mutex or sync.RWMutex); an annotation whose
// mutex does not exist is itself reported.
//
// Guarded access (L0). A guarded field may only be read or written in a
// function whose body locks the named mutex (x.<mutex>.Lock() or .RLock()),
// or whose name ends in "Locked" — the convention for helpers documented as
// requiring the caller to hold the lock. The check proves the function is
// at least aware of the lock, not that the Lock dominates the access.
//
// Contract propagation (L1). A function whose name ends in "Locked"
// promises its callers hold the locks guarding the state it touches. The
// analyzer computes that contract — the guard mutexes of fields the
// function (or any *Locked helper it calls) accesses without locking them
// itself — and verifies every call site: the caller must lock the mutex in
// its own body, inherit the obligation by being *Locked itself, or be
// reachable only from call sites that do. L0 checks the leaf access; L1
// the chain of custody above it.
//
// Escape detection (L2). Holding the right lock at the access is worthless
// if the guarded value leaks out of the critical section: returning a
// guarded slice/map/pointer field, taking a guarded field's address, or
// touching guarded state inside a `go` closure that does not lock the
// guard itself all publish state the mutex no longer protects.
//
// Lock ordering (L3). //eflint:lockorder m1 m2 [m3...] directives declare
// acquisition order (outermost first) with mutexes written as
// pkgname.Type.field (or pkgname.var for package-level mutexes). The
// declared chains are unioned into a DAG; acquiring a declared mutex while
// holding one the DAG orders after it is a deadlock seed and is reported,
// as is acquiring a mutex that may already be held. Held sets flow through
// the static call graph, so an order inversion split across packages is
// still caught.
//
// Like every analysis over the static call graph, calls through interfaces
// and function values are invisible; the checks under-approximate the
// dynamic graph and never prove the absence of deadlock — they mechanize
// the conventions DESIGN.md declares.
package locklint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"github.com/elasticflow/elasticflow/internal/analysis"
)

// Analyzer is the locklint analyzer.
var Analyzer = &analysis.Analyzer{
	Name:       "locklint",
	Doc:        "guarded-by checking: guarded fields touched without their mutex, *Locked contracts at call sites, guarded values escaping critical sections, declared lock-order violations",
	RunProgram: run,
}

type stringSet map[string]bool

func (s stringSet) add(vs ...string) {
	for _, v := range vs {
		s[v] = true
	}
}

func (s stringSet) union(o stringSet) {
	for v := range o {
		s[v] = true
	}
}

func (s stringSet) sorted() []string {
	out := make([]string, 0, len(s))
	for v := range s {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// lockEvent is one Lock/RLock/Unlock/RUnlock call in a scope.
type lockEvent struct {
	pos    token.Pos
	mutex  string
	lock   bool // acquire vs release
	defers bool // deferred releases hold to scope end
}

// scope is one straight-line lock context: a function body or one function
// literal inside it (literals run at another time — a goroutine body holds
// none of its creator's locks). Nested literals get their own scopes.
type scope struct {
	fn     *analysis.FuncNode
	root   bool // the FuncDecl body itself
	events []lockEvent
}

// heldAt returns the mutexes positionally held at pos: lock events before
// pos minus non-deferred unlocks. Branch-insensitive by design, matching
// L0's "aware of the lock" philosophy.
func (sc *scope) heldAt(pos token.Pos) stringSet {
	held := stringSet{}
	for _, e := range sc.events {
		if e.pos >= pos {
			break
		}
		if e.lock {
			held.add(e.mutex)
		} else if !e.defers {
			delete(held, e.mutex)
		}
	}
	return held
}

type checker struct {
	pass   *analysis.ProgramPass
	prog   *analysis.Program
	guards map[types.Object]analysis.GuardedField

	scopes    map[*analysis.FuncNode][]*scope
	siteScope map[*ast.CallExpr]*scope
	lockedIn  map[*analysis.FuncNode]stringSet // lock calls anywhere in the decl
	needs     map[*analysis.FuncNode]stringSet // *Locked contract
	mustEntry map[*analysis.FuncNode]stringSet
	mustState map[*analysis.FuncNode]int // 0 unknown, 1 done, -1 in progress
	mayEntry  map[*analysis.FuncNode]stringSet

	order    map[string]stringSet // declared DAG: edge a → b means a before b
	declared stringSet
}

func run(pass *analysis.ProgramPass) error {
	c := &checker{
		pass:      pass,
		prog:      pass.Program,
		guards:    make(map[types.Object]analysis.GuardedField),
		scopes:    make(map[*analysis.FuncNode][]*scope),
		siteScope: make(map[*ast.CallExpr]*scope),
		lockedIn:  make(map[*analysis.FuncNode]stringSet),
		needs:     make(map[*analysis.FuncNode]stringSet),
		mustEntry: make(map[*analysis.FuncNode]stringSet),
		mustState: make(map[*analysis.FuncNode]int),
		mayEntry:  make(map[*analysis.FuncNode]stringSet),
		order:     make(map[string]stringSet),
		declared:  stringSet{},
	}
	for obj, gf := range pass.Program.GuardedFields() {
		if gf.Orphan {
			pass.Reportf(obj.Pos(), "'guarded by %s' names no field of this struct", gf.MutexField)
			continue
		}
		c.guards[obj] = gf
	}
	c.collectScopes()
	c.computeNeeds()
	c.collectOrder()
	c.computeMayEntry()
	for _, fn := range c.prog.Funcs() {
		c.checkAccesses(fn)
		c.checkContracts(fn)
		c.checkEscapes(fn)
		c.checkOrder(fn)
	}
	return nil
}

// isLockedName reports the *Locked naming convention.
func isLockedName(fn *analysis.FuncNode) bool {
	return strings.HasSuffix(fn.Name(), "Locked")
}

// mutexNameOf resolves the receiver of a .Lock()/.Unlock() call to the
// qualified mutex identity: p.mu → "pkg.Type.mu", package-level mu →
// "pkg.mu". Empty for receivers that resolve to neither.
func mutexNameOf(info *types.Info, x ast.Expr) string {
	switch x := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		return analysis.QualifiedMutex(info, x)
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name()
		}
	}
	return ""
}

// collectScopes splits every function into scopes and records lock events
// and call-site ownership.
func (c *checker) collectScopes() {
	for _, fn := range c.prog.Funcs() {
		if fn.Decl.Body == nil {
			continue
		}
		root := &scope{fn: fn, root: true}
		c.scopes[fn] = []*scope{root}
		c.lockedIn[fn] = stringSet{}
		c.walkScope(fn, root, fn.Decl.Body, false)
		for _, sc := range c.scopes[fn] {
			sort.Slice(sc.events, func(i, k int) bool { return sc.events[i].pos < sc.events[k].pos })
		}
	}
}

// walkScope records n's lock events and call sites into sc, recursing into
// function literals as fresh scopes.
func (c *checker) walkScope(fn *analysis.FuncNode, sc *scope, n ast.Node, deferred bool) {
	info := fn.Pkg.Info
	ast.Inspect(n, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			if node.Pos() == n.Pos() {
				return true // the literal whose body we were asked to walk
			}
			lit := &scope{fn: fn}
			c.scopes[fn] = append(c.scopes[fn], lit)
			c.walkScope(fn, lit, node, false)
			return false
		case *ast.DeferStmt:
			c.walkScope(fn, sc, node.Call, true)
			return false
		case *ast.CallExpr:
			c.siteScope[node] = sc
			sel, ok := node.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			var lock bool
			switch sel.Sel.Name {
			case "Lock", "RLock":
				lock = true
			case "Unlock", "RUnlock":
			default:
				return true
			}
			m := mutexNameOf(info, sel.X)
			if m == "" {
				return true
			}
			sc.events = append(sc.events, lockEvent{pos: node.Pos(), mutex: m, lock: lock, defers: deferred && !lock})
			if lock {
				c.lockedIn[fn].add(m)
			}
		}
		return true
	})
}

// guardedAccess resolves a selector to the guarded field it touches, if any.
func (c *checker) guardedAccess(info *types.Info, sel *ast.SelectorExpr) (types.Object, analysis.GuardedField, bool) {
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return nil, analysis.GuardedField{}, false
	}
	gf, ok := c.guards[selection.Obj()]
	return selection.Obj(), gf, ok
}

// computeNeeds derives every *Locked function's contract: the guard
// mutexes of fields it accesses (directly, or through *Locked callees)
// without locking them in its own body. Iterated to a fixpoint so contracts
// flow through chains of *Locked helpers.
func (c *checker) computeNeeds() {
	locked := []*analysis.FuncNode{}
	for _, fn := range c.prog.Funcs() {
		if fn.Decl.Body == nil || !isLockedName(fn) {
			continue
		}
		locked = append(locked, fn)
		direct := stringSet{}
		info := fn.Pkg.Info
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if _, gf, ok := c.guardedAccess(info, sel); ok {
					direct.add(gf.Mutex)
				}
			}
			return true
		})
		for m := range c.lockedIn[fn] {
			delete(direct, m)
		}
		c.needs[fn] = direct
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range locked {
			for _, call := range fn.Calls {
				callee := call.Callee
				if !isLockedName(callee) {
					continue
				}
				for m := range c.needs[callee] {
					if !c.lockedIn[fn][m] && !c.needs[fn][m] {
						c.needs[fn][m] = true
						changed = true
					}
				}
			}
		}
	}
}

// checkAccesses reports guarded fields fn touches when fn neither locks the
// guarding mutex anywhere in its body nor is a *Locked helper (L0).
func (c *checker) checkAccesses(fn *analysis.FuncNode) {
	if fn.Decl.Body == nil || isLockedName(fn) {
		return
	}
	info := fn.Pkg.Info
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if obj, gf, ok := c.guardedAccess(info, sel); ok && !c.lockedIn[fn][gf.Mutex] {
				c.pass.Reportf(sel.Sel.Pos(), "%s is guarded by %s, but %s neither locks it nor is a *Locked helper", obj.Name(), gf.MutexField, fn.Name())
			}
		}
		return true
	})
}

// awareOf is the set of mutexes fn can assume: locks in its own body, its
// own *Locked contract, and locks every call site provably holds.
func (c *checker) awareOf(fn *analysis.FuncNode) stringSet {
	out := stringSet{}
	out.union(c.lockedIn[fn])
	out.union(c.needs[fn])
	out.union(c.mustEntryOf(fn))
	return out
}

// mustEntryOf returns the mutexes held at every call site of fn
// (intersection over callers). No callers, or a caller cycle, yields the
// empty set — nothing is proven held.
func (c *checker) mustEntryOf(fn *analysis.FuncNode) stringSet {
	switch c.mustState[fn] {
	case 1:
		return c.mustEntry[fn]
	case -1:
		return stringSet{}
	}
	c.mustState[fn] = -1
	var acc stringSet
	for _, call := range fn.Callers {
		held := stringSet{}
		if sc := c.siteScope[call.Site]; sc != nil {
			held.union(sc.heldAt(call.Site.Pos()))
		}
		held.union(c.awareOf(call.Caller))
		if acc == nil {
			acc = held
			continue
		}
		for m := range acc {
			if !held[m] {
				delete(acc, m)
			}
		}
	}
	if acc == nil {
		acc = stringSet{}
	}
	c.mustEntry[fn] = acc
	c.mustState[fn] = 1
	return acc
}

// checkContracts verifies every call from fn into a *Locked callee. A
// *Locked caller is exempt: the obligation flows into its own contract and
// is checked at the boundary where a non-Locked function enters the chain.
func (c *checker) checkContracts(fn *analysis.FuncNode) {
	if fn.Decl.Body == nil || isLockedName(fn) {
		return
	}
	var aware stringSet
	for _, call := range fn.Calls {
		callee := call.Callee
		if !isLockedName(callee) || len(c.needs[callee]) == 0 {
			continue
		}
		if aware == nil {
			aware = c.awareOf(fn)
		}
		for _, m := range c.needs[callee].sorted() {
			if !aware[m] {
				c.pass.Reportf(call.Site.Pos(), "call to %s without holding %s: %s neither locks it, is a *Locked helper, nor is only reachable from holders", callee.Name(), m, fn.Name())
			}
		}
	}
}

// refType reports whether t aliases memory when copied — the types whose
// escape from a critical section leaks the guarded state itself.
func refType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer, *types.Chan:
		return true
	}
	return false
}

// checkEscapes reports guarded state leaving its critical section: returned
// reference-typed guarded fields, guarded fields with their address taken,
// and guarded accesses inside go-statement closures that do not lock the
// guard themselves.
func (c *checker) checkEscapes(fn *analysis.FuncNode) {
	if fn.Decl.Body == nil {
		return
	}
	info := fn.Pkg.Info
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				expr := ast.Unparen(res)
				if lit, ok := expr.(*ast.FuncLit); ok {
					c.checkClosure(fn, lit, "returned closure")
					continue
				}
				sel, ok := expr.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if obj, gf, ok := c.guardedAccess(info, sel); ok && refType(obj.Type()) {
					c.pass.Reportf(res.Pos(), "returning %s lets it escape its critical section: the field is guarded by %s, which the caller does not hold (return a copy)", obj.Name(), gf.Mutex)
				}
			}
		case *ast.UnaryExpr:
			if n.Op != token.AND {
				return true
			}
			if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
				if obj, gf, ok := c.guardedAccess(info, sel); ok {
					c.pass.Reportf(n.Pos(), "taking the address of %s lets it escape its critical section (guarded by %s)", obj.Name(), gf.Mutex)
				}
			}
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				c.checkClosure(fn, lit, "goroutine")
				return false
			}
		}
		return true
	})
}

// checkClosure flags guarded accesses inside a closure that runs outside
// the current critical section (a goroutine body or a returned closure)
// unless the closure locks the guard itself.
func (c *checker) checkClosure(fn *analysis.FuncNode, lit *ast.FuncLit, what string) {
	info := fn.Pkg.Info
	litLocks := stringSet{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock") {
			if m := mutexNameOf(info, sel.X); m != "" {
				litLocks.add(m)
			}
		}
		return true
	})
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
			return false // nested closures judged on their own when spawned
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if obj, gf, ok := c.guardedAccess(info, sel); ok && !litLocks[gf.Mutex] {
			c.pass.Reportf(sel.Sel.Pos(), "%s captures %s but runs outside the critical section: it must lock %s itself", what, obj.Name(), gf.Mutex)
		}
		return true
	})
}

// collectOrder parses //eflint:lockorder directives into the order DAG and
// validates it is acyclic.
func (c *checker) collectOrder() {
	for _, d := range c.prog.Directives() {
		if d.Name != "lockorder" {
			continue
		}
		if len(d.Args) < 2 {
			c.pass.Reportf(d.Pos, "malformed //eflint:lockorder directive: want two or more qualified mutex names (outermost first)")
			continue
		}
		bad := false
		for _, m := range d.Args {
			if !strings.Contains(m, ".") {
				c.pass.Reportf(d.Pos, "malformed //eflint:lockorder mutex %q: want pkgname.Type.field or pkgname.var", m)
				bad = true
				break
			}
		}
		if bad {
			continue
		}
		for i := 0; i+1 < len(d.Args); i++ {
			a, b := d.Args[i], d.Args[i+1]
			if c.order[a] == nil {
				c.order[a] = stringSet{}
			}
			c.order[a][b] = true
			c.declared.add(a, b)
		}
		if cyc := c.findCycle(); cyc != "" {
			c.pass.Reportf(d.Pos, "//eflint:lockorder directives form a cycle through %s", cyc)
			return
		}
	}
}

// findCycle returns a mutex on a cycle of the declared order, or "".
func (c *checker) findCycle() string {
	state := map[string]int{}
	var visit func(string) string
	visit = func(m string) string {
		switch state[m] {
		case 1:
			return m
		case 2:
			return ""
		}
		state[m] = 1
		for _, n := range c.order[m].sorted() {
			if bad := visit(n); bad != "" {
				return bad
			}
		}
		state[m] = 2
		return ""
	}
	for _, m := range c.declared.sorted() {
		if bad := visit(m); bad != "" {
			return bad
		}
	}
	return ""
}

// before reports whether the declared DAG orders a strictly before b.
func (c *checker) before(a, b string) bool {
	seen := stringSet{}
	var walk func(string) bool
	walk = func(m string) bool {
		if m == b {
			return true
		}
		if seen[m] {
			return false
		}
		seen.add(m)
		for n := range c.order[m] {
			if walk(n) {
				return true
			}
		}
		return false
	}
	for n := range c.order[a] {
		if walk(n) {
			return true
		}
	}
	return false
}

// computeMayEntry propagates may-held sets through the call graph: every
// lock a caller may hold at a call site may be held for the callee's whole
// body. Function-literal call sites contribute only the literal's own locks
// (a goroutine does not inherit its creator's critical section).
func (c *checker) computeMayEntry() {
	for _, fn := range c.prog.Funcs() {
		s := stringSet{}
		s.union(c.needs[fn]) // a *Locked callee runs under its contract
		c.mayEntry[fn] = s
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range c.prog.Funcs() {
			for _, call := range fn.Calls {
				contrib := stringSet{}
				sc := c.siteScope[call.Site]
				if sc != nil {
					contrib.union(sc.heldAt(call.Site.Pos()))
				}
				if sc == nil || sc.root {
					contrib.union(c.mayEntry[fn])
				}
				dst := c.mayEntry[call.Callee]
				for m := range contrib {
					if !dst[m] {
						dst[m] = true
						changed = true
					}
				}
			}
		}
	}
}

// checkOrder walks each scope's lock events and reports acquisitions that
// invert the declared order or re-acquire a mutex that may be held.
func (c *checker) checkOrder(fn *analysis.FuncNode) {
	for _, sc := range c.scopes[fn] {
		held := stringSet{}
		for _, e := range sc.events {
			if !e.lock {
				if !e.defers {
					delete(held, e.mutex)
				}
				continue
			}
			may := stringSet{}
			may.union(held)
			if sc.root {
				may.union(c.mayEntry[fn])
			}
			if may[e.mutex] {
				c.pass.Reportf(e.pos, "%s may already be held here: acquiring it again self-deadlocks", e.mutex)
			} else if c.declared[e.mutex] {
				for _, a := range may.sorted() {
					if c.declared[a] && c.before(e.mutex, a) {
						c.pass.Reportf(e.pos, "lock order violation: acquiring %s while holding %s, but the declared order puts %s first", e.mutex, a, e.mutex)
					}
				}
			}
			held.add(e.mutex)
		}
	}
}
