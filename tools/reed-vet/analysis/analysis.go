// Package analysis is a deliberately small, dependency-free subset of
// golang.org/x/tools/go/analysis: just enough structure to write
// project-specific analyzers and drive them over type-checked packages.
//
// The container this project builds in has no module proxy access, so
// reed-vet cannot depend on x/tools. The types here mirror the x/tools
// API surface (Analyzer with a Run func over a Pass that carries the
// FileSet, syntax, and go/types information) so that, should x/tools
// become available, the analyzers port by changing imports only.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one named check.
type Analyzer struct {
	// Name is the analyzer's identifier, printed with each diagnostic
	// and usable with the -only flag.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces
	// and why REED needs it.
	Doc string
	// Run inspects one package and reports findings via pass.Report.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Position resolves a token.Pos against the pass's FileSet.
func (p *Pass) Position(pos token.Pos) token.Position {
	return p.Fset.Position(pos)
}

// Diagnostic is one finding. The driver fills Analyzer and Position
// when collecting.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
	Position token.Position
}

// String renders a diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)",
		d.Position.Filename, d.Position.Line, d.Position.Column, d.Message, d.Analyzer)
}
