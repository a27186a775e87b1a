// Package analyzers registers the reed-vet suite.
package analyzers

import (
	"reedvet/analysis"
	"reedvet/analyzers/ctxrule"
	"reedvet/analyzers/errclass"
	"reedvet/analyzers/keyhygiene"
	"reedvet/analyzers/lockguard"
	"reedvet/analyzers/metricname"
)

// All returns every analyzer in the suite, in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		keyhygiene.Analyzer,
		ctxrule.Analyzer,
		lockguard.Analyzer,
		metricname.Analyzer,
		errclass.Analyzer,
	}
}

// Names returns every registered analyzer name: the authoritative set
// for validating `//reed-vet:ignore <analyzer>` directives, which may
// legitimately name analyzers outside the current run's subset.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, a := range all {
		out[i] = a.Name
	}
	return out
}

// ByName returns the named analyzers, or nil if any name is unknown.
func ByName(names []string) []*analysis.Analyzer {
	idx := map[string]*analysis.Analyzer{}
	for _, a := range All() {
		idx[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, n := range names {
		a, ok := idx[n]
		if !ok {
			return nil
		}
		out = append(out, a)
	}
	return out
}
