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
//     byte-position timing oracle, the classic MAC-forgery enabler).
//
// A value is considered secret when its identifier names key material
// (mleKey, fileKey, hashKey, …; or the bare names key/stub/secret
// inside the key-handling packages), when its type is a known secret
// type (mle.Key, oprf.ServerKey, rsacrt.Key, abe.PrivateKey), or when its
// declaration carries a "//reed:secret" marker comment.
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
	Doc:  "key material must not be formatted, logged, stringified, or compared non-constant-time",
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
	"internal/keyreg", "internal/abe", "internal/shamir", "internal/baseline",
	"internal/rsacrt",
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
	// marked holds file:line positions carrying the secret marker;
	// declarations on the marker's line or the line below are secret.
	marked map[string]map[int]bool
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:      pass,
		sensitive: astq.PathMatches(pass.Pkg.Path(), sensitivePkgs...),
		marked:    map[string]map[int]bool{},
	}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				if strings.HasPrefix(cm.Text, secretMarker) {
					p := pass.Position(cm.Pos())
					if c.marked[p.Filename] == nil {
						c.marked[p.Filename] = map[int]bool{}
					}
					c.marked[p.Filename][p.Line] = true
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
	}
	return true
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
	if v.Pos().IsValid() {
		p := c.pass.Position(v.Pos())
		if lines := c.marked[p.Filename]; lines != nil && (lines[p.Line] || lines[p.Line-1]) {
			return id.Name, true
		}
	}
	return "", false
}
