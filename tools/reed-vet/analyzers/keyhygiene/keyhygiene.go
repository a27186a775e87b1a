// Package keyhygiene enforces REED's key-material hygiene rules.
//
// The system's security argument (REED paper §V; Li et al.'s
// frequency-analysis attacks) depends on what an adversary can
// observe. Key material — MLE keys, CAONT hash keys, file keys,
// stubs, OPRF secrets — must therefore never reach an observable
// channel:
//
//   - no secret value may flow into fmt/log formatting or into a
//     String/Error/GoString method (logs and error strings end up in
//     crash reports, admin endpoints, and client output);
//   - secrets must be compared in constant time via crypto/subtle,
//     never with bytes.Equal or ==/!= (early-exit comparison leaks a
//     byte-position timing oracle, the classic MAC-forgery enabler);
//   - a local declared on a "//reed:secret" marker line must be
//     followed, as the next statement of its block, by
//     `defer core.Wipe(v[:])` (`defer Wipe(v[:])` inside package core),
//     so the transient copy is zeroed on every return path.
//
// A value is considered secret when its identifier names key material
// (mleKey, fileKey, hashKey, …; or the bare names key/stub/secret
// inside the key-handling packages), when its type is a known secret
// type (mle.Key, oprf.ServerKey, rsacrt.Key, abe.PrivateKey), or when its
// declaration carries a "//reed:secret" marker comment, trailing it or
// alone on the line above.
package keyhygiene

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"reedvet/analysis"
	"reedvet/internal/astq"
)

var Analyzer = &analysis.Analyzer{
	Name: "keyhygiene",
	Doc:  "key material must not be formatted, logged, stringified, or compared non-constant-time; //reed:secret locals must be wiped by the next statement",
	Run:  run,
}

// secretNameRE matches identifiers that unambiguously name key
// material anywhere in the tree.
var secretNameRE = regexp.MustCompile(`(?i)^(mle|file|hash|conv|convergent|oprf|master|secret|priv|private|old|new)_?key(s)?$`)

// bareSecretNames are generic identifiers treated as secret only
// inside sensitivePkgs, where "key" really does mean cryptographic
// key.
var bareSecretNames = map[string]bool{
	"key": true, "keys": true, "secret": true, "stub": true, "stubs": true,
}

// sensitivePkgs are the key-handling packages (path suffixes).
var sensitivePkgs = []string{
	"internal/aont", "internal/mle", "internal/core", "internal/keycache",
	"internal/keymanager", "internal/oprf", "internal/client",
	"internal/keyreg", "internal/abe", "internal/shamir", "internal/rsacrt",
}

// secretTypes are named types whose values are always secret.
var secretTypes = []struct{ pkg, name string }{
	{"internal/mle", "Key"},
	{"internal/oprf", "ServerKey"},
	{"internal/rsacrt", "Key"},
	{"internal/abe", "PrivateKey"},
}

// secretMarker marks a declaration as holding secret material.
const secretMarker = "//reed:secret"

// fmtPkgs are packages whose formatting functions count as observable
// sinks.
var fmtPkgs = map[string]bool{"fmt": true, "log": true, "log/slog": true}

type checker struct {
	pass      *analysis.Pass
	sensitive bool
	// marked holds the file:line positions a secret marker applies to:
	// its own line, or the line below when it stands alone.
	marked map[fileLine]bool
}

type fileLine struct {
	file string
	line int
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:      pass,
		sensitive: astq.PathMatches(pass.Pkg.Path(), sensitivePkgs...),
		marked:    map[fileLine]bool{},
	}
	for _, f := range pass.Files {
		code := map[int]bool{} // lines on which some code starts
		ast.Inspect(f, func(n ast.Node) bool {
			if _, comment := n.(*ast.CommentGroup); n == nil || comment {
				return false
			}
			code[pass.Position(n.Pos()).Line] = true
			return true
		})
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				if strings.HasPrefix(cm.Text, secretMarker) {
					p := pass.Position(cm.Pos())
					if !code[p.Line] {
						p.Line++
					}
					c.marked[fileLine{p.Filename, p.Line}] = true
				}
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, c.check)
	}
	return nil
}

func (c *checker) check(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		c.checkCall(n)
	case *ast.BinaryExpr:
		c.checkCompare(n)
	case *ast.FuncDecl:
		c.checkStringer(n)
	case *ast.BlockStmt:
		c.checkWipes(n.List)
	case *ast.CaseClause:
		c.checkWipes(n.Body)
	case *ast.CommClause:
		c.checkWipes(n.Body)
	case *ast.IfStmt: // a local declared in a header has no next statement
		c.checkWipes([]ast.Stmt{n.Init})
	case *ast.SwitchStmt:
		c.checkWipes([]ast.Stmt{n.Init})
	case *ast.ForStmt:
		c.checkWipes([]ast.Stmt{n.Init})
	}
	return true
}

// checkWipes flags every marked local in list whose next statement is
// not a deferred core.Wipe of all of it.
func (c *checker) checkWipes(list []ast.Stmt) {
	for i, st := range list {
		for _, v := range c.markedLocals(st) {
			if i+1 == len(list) || !c.defersWipe(list[i+1], v) {
				c.pass.Reportf(st.Pos(), "secret %s declared on a %s line must be wiped by `defer core.Wipe(%s[:])` as the next statement", v.Name(), secretMarker, v.Name())
			}
		}
	}
}

// markedLocals returns the locals st declares on a marker line.
func (c *checker) markedLocals(st ast.Stmt) []*types.Var {
	if st == nil || !c.markedAt(st.Pos()) {
		return nil
	}
	var ids []*ast.Ident
	switch st := st.(type) {
	case *ast.AssignStmt:
		for _, e := range st.Lhs { // only a := puts its names in Defs
			if id, ok := e.(*ast.Ident); ok {
				ids = append(ids, id)
			}
		}
	case *ast.DeclStmt:
		for _, sp := range st.Decl.(*ast.GenDecl).Specs {
			if vs, ok := sp.(*ast.ValueSpec); ok {
				ids = append(ids, vs.Names...)
			}
		}
	}
	var out []*types.Var
	for _, id := range ids {
		if v, ok := c.pass.TypesInfo.Defs[id].(*types.Var); ok {
			out = append(out, v)
		}
	}
	return out
}

// defersWipe reports whether st is `defer core.Wipe(v)` or
// `defer core.Wipe(v[:])`.
func (c *checker) defersWipe(st ast.Stmt, v *types.Var) bool {
	d, ok := st.(*ast.DeferStmt)
	if !ok || !astq.IsPkgFunc(c.pass.TypesInfo, d.Call, "internal/core", "Wipe") || len(d.Call.Args) != 1 {
		return false
	}
	arg := ast.Unparen(d.Call.Args[0])
	if sl, ok := arg.(*ast.SliceExpr); ok && sl.Low == nil && sl.High == nil {
		arg = ast.Unparen(sl.X)
	}
	id, ok := arg.(*ast.Ident)
	return ok && c.pass.TypesInfo.Uses[id] == v
}

// markedAt reports whether a secret marker applies to pos's line.
func (c *checker) markedAt(pos token.Pos) bool {
	p := c.pass.Position(pos)
	return c.marked[fileLine{p.Filename, p.Line}]
}

// checkCall flags bytes.Equal on secrets, secrets passed to
// fmt/log sinks, and string(secret) conversions.
func (c *checker) checkCall(call *ast.CallExpr) {
	info := c.pass.TypesInfo

	// string(secret): the conversion that turns key bytes into a
	// loggable/concatenatable value.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Kind() == types.String {
			if name, yes := c.isSecret(call.Args[0]); yes {
				c.pass.Reportf(call.Pos(), "secret %q converted to string; key material must stay []byte and never enter strings", name)
			}
		}
		return
	}

	if astq.IsPkgFunc(info, call, "bytes", "Equal") {
		for _, arg := range call.Args {
			if name, yes := c.isSecret(arg); yes {
				c.pass.Reportf(call.Pos(), "secret %q compared with bytes.Equal; use crypto/subtle.ConstantTimeCompare", name)
				return
			}
		}
		return
	}

	// fmt/log sinks: package-level functions and *log.Logger /
	// *slog.Logger methods alike resolve to a *types.Func in one of
	// fmtPkgs.
	if fn := astq.Callee(info, call); fn != nil && fn.Pkg() != nil && fmtPkgs[fn.Pkg().Path()] {
		for _, arg := range call.Args {
			if name, yes := c.isSecret(arg); yes {
				c.pass.Reportf(arg.Pos(), "secret %q passed to %s.%s; key material must not be formatted or logged", name, fn.Pkg().Name(), fn.Name())
			}
		}
	}
}

// checkCompare flags ==/!= with a secret operand (timing oracle on
// comparable arrays and strings). Comparisons against nil are shape
// checks, not content comparisons, and stay legal.
func (c *checker) checkCompare(b *ast.BinaryExpr) {
	if b.Op != token.EQL && b.Op != token.NEQ {
		return
	}
	info := c.pass.TypesInfo
	if astq.IsNilLiteral(info, b.X) || astq.IsNilLiteral(info, b.Y) {
		return
	}
	for _, side := range []ast.Expr{b.X, b.Y} {
		if name, yes := c.isSecret(side); yes {
			c.pass.Reportf(b.Pos(), "secret %q compared with %s; use crypto/subtle.ConstantTimeCompare", name, b.Op)
			return
		}
	}
}

// checkStringer flags any secret referenced inside a String, Error,
// or GoString method: their results are destined for logs by
// definition.
func (c *checker) checkStringer(fd *ast.FuncDecl) {
	if fd.Recv == nil || fd.Body == nil {
		return
	}
	switch fd.Name.Name {
	case "String", "Error", "GoString":
	default:
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if name, yes := c.isSecret(id); yes {
				c.pass.Reportf(id.Pos(), "secret %q referenced in %s(); key material must not reach stringers", name, fd.Name.Name)
			}
		}
		return true
	})
}

// isSecret reports whether e denotes secret key material, and under
// what name.
func (c *checker) isSecret(e ast.Expr) (string, bool) {
	e = ast.Unparen(e)
	if sl, ok := e.(*ast.SliceExpr); ok { // fileKey[:] is as secret as fileKey
		e = ast.Unparen(sl.X)
	}

	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return "", false
	}

	obj := c.pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = c.pass.TypesInfo.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return "", false
	}

	for _, st := range secretTypes {
		if astq.IsNamed(v.Type(), st.pkg, st.name) {
			return id.Name, true
		}
	}
	if secretNameRE.MatchString(id.Name) {
		return id.Name, true
	}
	if c.sensitive && bareSecretNames[id.Name] {
		return id.Name, true
	}
	if v.Pos().IsValid() && c.markedAt(v.Pos()) {
		return id.Name, true
	}
	return "", false
}
