// Command reed-vet runs REED's project-specific static-analysis suite
// over a Go module: five analyzers enforcing the invariants the
// compiler cannot see (key hygiene and secret wiping, context
// discipline, lock discipline, metric naming, error classification).
// See DESIGN.md "Static analysis" for the catalog.
//
// Usage:
//
//	reed-vet [-dir DIR] [-only a,b] [patterns ...]
//
// Patterns default to ./... relative to -dir (default "."). Exits 1
// if any diagnostic is reported, 2 on operational errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"reedvet/analyzers"
	"reedvet/load"
	"reedvet/runner"
)

func main() {
	dir := flag.String("dir", ".", "module directory to analyze")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	suite := analyzers.All()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		suite = analyzers.ByName(strings.Split(*only, ","))
		if suite == nil {
			fmt.Fprintf(os.Stderr, "reed-vet: unknown analyzer in -only=%s\n", *only)
			os.Exit(2)
		}
	}

	pkgs, err := load.Packages(*dir, flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reed-vet:", err)
		os.Exit(2)
	}
	res, err := runner.RunAll(pkgs, suite, analyzers.Names())
	if err != nil {
		fmt.Fprintln(os.Stderr, "reed-vet:", err)
		os.Exit(2)
	}
	for _, d := range res.Diags {
		fmt.Println(d.String())
	}

	reportIgnores(res.Ignores)
	if len(res.Diags) > 0 {
		fmt.Fprintf(os.Stderr, "reed-vet: %d diagnostic(s) in %d package(s)\n", len(res.Diags), res.Packages)
		os.Exit(1)
	}
}

// reportIgnores prints the active-ignore census: how many structured
// `//reed-vet:ignore` directives are currently muting each analyzer.
// Silence means no invariant is escape-hatched anywhere.
func reportIgnores(ignores map[string]int) {
	if len(ignores) == 0 {
		return
	}
	names := make([]string, 0, len(ignores))
	total := 0
	for n, c := range ignores {
		names = append(names, n)
		total += c
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", n, ignores[n]))
	}
	fmt.Fprintf(os.Stderr, "reed-vet: %d active ignore directive(s): %s\n", total, strings.Join(parts, " "))
}
