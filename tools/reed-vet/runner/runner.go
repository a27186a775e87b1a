// Package runner executes analyzers over loaded packages and collects
// their diagnostics: the shared engine behind the reed-vet CLI, the
// analysistest harness, and the repo meta-test.
package runner

import (
	"fmt"
	"go/token"
	"regexp"
	"sort"
	"strings"

	"reedvet/analysis"
	"reedvet/load"
)

// ignoreMarker introduces a suppression directive. The directive is
// structured — `//reed-vet:ignore <analyzer> — <reason>` — and
// suppresses only the named analyzer's diagnostics on its own line or
// the line directly below. It is the escape hatch for the rare sites
// where an invariant is deliberately broken; the mandatory reason
// documents why. Bare or analyzer-less forms are reported as errors so
// a directive can never silently mute the whole suite.
const ignoreMarker = "//reed-vet:ignore"

// directiveRE parses the structured form: the analyzer name, a dash
// separator (em dash or ASCII hyphens), and a non-empty reason.
var directiveRE = regexp.MustCompile(`^//reed-vet:ignore\s+([A-Za-z][A-Za-z0-9]*)\s+(?:—|--?)\s*(\S.*)$`)

// Result is one full run's outcome.
type Result struct {
	// Diags are the surviving diagnostics, sorted by position.
	// Malformed ignore directives are included as diagnostics from the
	// pseudo-analyzer "directive" so they fail the run like any other
	// finding.
	Diags []analysis.Diagnostic
	// Ignores counts the active ignore directives per analyzer across
	// every analyzed package, so the CLI can report how much of each
	// invariant is escape-hatched.
	Ignores map[string]int
	// Packages is how many target packages were analyzed.
	Packages int
}

// Run applies every analyzer to every package and returns the
// surviving diagnostics sorted by position (compatibility wrapper
// around RunAll).
func Run(pkgs []*load.Package, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	res, err := RunAll(pkgs, analyzers, nil)
	if err != nil {
		return nil, err
	}
	return res.Diags, nil
}

// RunAll applies every analyzer to every package and returns the
// surviving diagnostics plus the per-analyzer ignore census. Packages
// with type errors abort the run: analyzing half-typed code yields
// nonsense.
//
// knownNames is the full analyzer registry used to validate ignore
// directives; a directive may legitimately name an analyzer that is
// not part of this run (e.g. under -only). Nil derives the set from
// the analyzers actually running.
func RunAll(pkgs []*load.Package, analyzers []*analysis.Analyzer, knownNames []string) (*Result, error) {
	res := &Result{Ignores: make(map[string]int), Packages: len(pkgs)}

	if knownNames == nil {
		for _, a := range analyzers {
			knownNames = append(knownNames, a.Name)
		}
	}
	known := make(map[string]bool, len(knownNames))
	for _, n := range knownNames {
		known[n] = true
	}

	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			return nil, fmt.Errorf("runner: %s has type errors: %v", pkg.ImportPath, pkg.TypeErrors[0])
		}
		ignored, bad := directives(pkg, known)
		res.Diags = append(res.Diags, bad...)
		for _, d := range ignored {
			res.Ignores[d.analyzer]++
		}
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			name := a.Name
			pass.Report = func(d analysis.Diagnostic) {
				d.Analyzer = name
				d.Position = pkg.Fset.Position(d.Pos)
				for _, dir := range ignored {
					if dir.analyzer == name && dir.file == d.Position.Filename &&
						(dir.line == d.Position.Line || dir.line+1 == d.Position.Line) {
						return
					}
				}
				res.Diags = append(res.Diags, d)
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("runner: %s on %s: %v", a.Name, pkg.ImportPath, err)
			}
		}
	}
	sort.Slice(res.Diags, func(i, j int) bool {
		a, b := res.Diags[i].Position, res.Diags[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return res.Diags[i].Analyzer < res.Diags[j].Analyzer
	})
	return res, nil
}

// directive is one parsed, well-formed ignore directive: it suppresses
// diagnostics from exactly one analyzer on its own line and the next.
type directive struct {
	analyzer string
	file     string
	line     int
}

// directives extracts every ignore directive in the package. Malformed
// forms — no analyzer name, an unknown analyzer, or a missing reason —
// come back as diagnostics: they fail the run instead of silently
// suppressing nothing (or worse, everything).
func directives(pkg *load.Package, known map[string]bool) ([]directive, []analysis.Diagnostic) {
	var out []directive
	var bad []analysis.Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		bad = append(bad, analysis.Diagnostic{
			Pos:      pos,
			Message:  fmt.Sprintf(format, args...),
			Analyzer: "directive",
			Position: pkg.Fset.Position(pos),
		})
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignoreMarker) {
					continue
				}
				m := directiveRE.FindStringSubmatch(c.Text)
				if m == nil {
					report(c.Pos(), "malformed ignore directive; use `//reed-vet:ignore <analyzer> — <reason>`")
					continue
				}
				if !known[m[1]] {
					report(c.Pos(), "ignore directive names unknown analyzer %q", m[1])
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				out = append(out, directive{analyzer: m[1], file: pos.Filename, line: pos.Line})
			}
		}
	}
	return out, bad
}
