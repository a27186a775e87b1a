// Package flow is the lightweight interprocedural dataflow layer under
// the zeroize analyzer. It has three parts:
//
//   - Index: the package's call graph substrate — a map from function
//     objects to their declarations, so analyzers can walk into callees.
//   - Summarizer: memoized bottom-up computation of per-function
//     transfer summaries ("does this helper wipe its key parameter?"),
//     with cycle cut-off.
//   - Walker: a generic all-paths traversal of one function body that
//     threads analyzer-defined state through every statement in source
//     order, forking at branches and reporting each path's terminal
//     state. It is the engine behind "on every return path" invariants.
//
// The walker enumerates paths rather than solving a join lattice:
// REED's functions are small, and per-path states make "Wipe before
// every return" direct to express. A path budget bounds the worst case; when it is exhausted
// the walk stops early, under-approximating (no false positives).
package flow

import (
	"go/ast"
	"go/types"
)

// Index maps every function and method declared in the package to its
// declaration: the substrate for intra-package interprocedural walks.
func Index(files []*ast.File, info *types.Info) map[*types.Func]*ast.FuncDecl {
	idx := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name == nil {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				idx[fn] = fd
			}
		}
	}
	return idx
}

// Summarizer memoizes a bottom-up per-function summary of type T.
// Compute is invoked at most once per function; recursive cycles and
// functions with no visible declaration yield Unknown, so analyzers
// degrade to "assume nothing" rather than diverge or guess.
type Summarizer[T any] struct {
	// Idx resolves functions to declarations (see Index).
	Idx map[*types.Func]*ast.FuncDecl
	// Compute derives the summary from a declaration. It may consult
	// s.Of for callees; cycles resolve to Unknown.
	Compute func(fn *types.Func, decl *ast.FuncDecl) T
	// External resolves summaries for functions without a local
	// declaration — the analyzer's bridge to cross-package facts.
	// Nil, or a false second result, falls back to Unknown.
	External func(fn *types.Func) (T, bool)
	// Unknown is the no-information summary.
	Unknown T

	memo    map[*types.Func]T
	running map[*types.Func]bool
}

// Of returns fn's summary, computing and caching it on first use.
func (s *Summarizer[T]) Of(fn *types.Func) T {
	if fn == nil {
		return s.Unknown
	}
	if s.memo == nil {
		s.memo = make(map[*types.Func]T)
		s.running = make(map[*types.Func]bool)
	}
	if v, ok := s.memo[fn]; ok {
		return v
	}
	decl, ok := s.Idx[fn]
	if !ok || decl.Body == nil {
		if s.External != nil {
			if v, ok := s.External(fn); ok {
				s.memo[fn] = v
				return v
			}
		}
		s.memo[fn] = s.Unknown
		return s.Unknown
	}
	if s.running[fn] {
		return s.Unknown // recursion: cut the cycle conservatively
	}
	s.running[fn] = true
	v := s.Compute(fn, decl)
	delete(s.running, fn)
	s.memo[fn] = v
	return v
}

// DefaultMaxPaths bounds path enumeration per function body. REED
// functions stay far under this; pathological nests stop early.
const DefaultMaxPaths = 4096

// Walker enumerates every control-flow path through a function body in
// source order, threading a state S through analyzer callbacks.
//
// Semantics, chosen to keep "must happen before every return" checks
// free of false positives:
//
//   - Loops run their body at most once per path (plus the
//     zero-iteration path when the loop can be skipped); violations
//     inside a body are still seen, repeated iterations add nothing
//     for the invariants checked here.
//   - break/continue/goto/fallthrough and panic abandon the path
//     without calling End: the walker under-approximates rather than
//     report a "missing cleanup" on a path that in truth rejoins.
//   - Conditions and other control expressions are surfaced to the
//     Stmt hook wrapped in a synthetic ast.ExprStmt, so hooks observe
//     every evaluated expression without AST special cases.
type Walker[S any] struct {
	// Clone deep-copies a state at a control-flow fork.
	Clone func(S) S
	// Stmt processes one straight-line statement (assignments, calls,
	// defer, go, synthetic condition wrappers, and the return
	// statement itself just before End) and yields the successor
	// state.
	Stmt func(S, ast.Stmt) S
	// End receives each path's terminal state: ret is the terminating
	// return statement, or nil when control falls off the end of the
	// body.
	End func(S, *ast.ReturnStmt)
	// MaxPaths overrides DefaultMaxPaths when positive.
	MaxPaths int

	budget int
}

// Walk enumerates the paths of body starting from state init.
func (w *Walker[S]) Walk(body *ast.BlockStmt, init S) {
	if body == nil {
		return
	}
	w.budget = w.MaxPaths
	if w.budget <= 0 {
		w.budget = DefaultMaxPaths
	}
	w.list(body.List, init, func(s S) {
		if w.End != nil {
			w.End(s, nil)
		}
	})
}

func (w *Walker[S]) list(stmts []ast.Stmt, s S, k func(S)) {
	if w.budget <= 0 {
		return
	}
	if len(stmts) == 0 {
		k(s)
		return
	}
	w.stmt(stmts[0], s, func(s2 S) { w.list(stmts[1:], s2, k) })
}

// cond surfaces a control expression to the Stmt hook via a synthetic
// wrapper, preserving positions.
func (w *Walker[S]) cond(s S, x ast.Expr) S {
	if x == nil {
		return s
	}
	return w.Stmt(s, &ast.ExprStmt{X: x})
}

func (w *Walker[S]) stmt(st ast.Stmt, s S, k func(S)) {
	if w.budget <= 0 {
		return
	}
	switch st := st.(type) {
	case *ast.BlockStmt:
		w.list(st.List, s, k)

	case *ast.LabeledStmt:
		w.stmt(st.Stmt, s, k)

	case *ast.IfStmt:
		if st.Init != nil {
			s = w.Stmt(s, st.Init)
		}
		s = w.cond(s, st.Cond)
		w.budget--
		then := w.Clone(s)
		w.list(st.Body.List, then, k)
		if st.Else != nil {
			w.stmt(st.Else, w.Clone(s), k)
		} else {
			k(s)
		}

	case *ast.ForStmt:
		if st.Init != nil {
			s = w.Stmt(s, st.Init)
		}
		s = w.cond(s, st.Cond)
		w.budget--
		once := w.Clone(s)
		w.list(st.Body.List, once, func(s2 S) {
			if st.Post != nil {
				s2 = w.Stmt(s2, st.Post)
			}
			if st.Cond == nil {
				return // `for {}`: falls out only via break, which abandons
			}
			k(s2)
		})
		if st.Cond != nil {
			k(s) // zero iterations
		}

	case *ast.RangeStmt:
		s = w.cond(s, st.X)
		w.budget--
		once := w.Clone(s)
		w.list(st.Body.List, once, k)
		k(s) // empty range

	case *ast.SwitchStmt:
		if st.Init != nil {
			s = w.Stmt(s, st.Init)
		}
		s = w.cond(s, st.Tag)
		w.switchBody(st.Body, s, k)

	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			s = w.Stmt(s, st.Init)
		}
		s = w.Stmt(s, st.Assign)
		w.switchBody(st.Body, s, k)

	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			w.budget--
			branch := w.Clone(s)
			if cc.Comm != nil {
				branch = w.Stmt(branch, cc.Comm)
			}
			w.list(cc.Body, branch, k)
		}
		if len(st.Body.List) == 0 {
			k(s)
		}

	case *ast.ReturnStmt:
		s = w.Stmt(s, st)
		if w.End != nil {
			w.End(s, st)
		}

	case *ast.BranchStmt:
		// break/continue/goto/fallthrough: abandon the path rather
		// than claim it terminates here.

	case *ast.ExprStmt:
		if isPanic(st.X) {
			w.Stmt(s, st)
			return // panic abandons the path; defers still ran, hooks model that
		}
		k(w.Stmt(s, st))

	default:
		// Straight-line statement: assign, decl, defer, go, send,
		// inc/dec, empty.
		k(w.Stmt(s, st))
	}
}

// switchBody forks one path per case clause, plus a fall-through path
// when no default exists.
func (w *Walker[S]) switchBody(body *ast.BlockStmt, s S, k func(S)) {
	hasDefault := false
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		w.budget--
		branch := w.Clone(s)
		for _, x := range cc.List {
			branch = w.cond(branch, x)
		}
		w.list(cc.Body, branch, k)
	}
	if !hasDefault {
		k(s)
	}
}

// isPanic reports whether x is a call to the panic builtin.
func isPanic(x ast.Expr) bool {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic" && id.Obj == nil
}

// ParamIndex returns which parameter of fn's signature the object v
// is, or -1 when v is not a parameter.
func ParamIndex(fn *types.Func, v *types.Var) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == v {
			return i
		}
	}
	return -1
}
