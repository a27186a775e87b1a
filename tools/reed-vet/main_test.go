package main

import (
	"testing"

	"reedvet/analyzers"
	"reedvet/load"
	"reedvet/runner"
)

// TestRepoIsClean is the meta-test: the full suite over the real
// repository must report nothing. Any new violation in the main
// module fails this test (and `make vet-reed` in CI).
func TestRepoIsClean(t *testing.T) {
	pkgs, err := load.Packages("../..", "./...")
	if err != nil {
		t.Fatalf("load repo: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; expected the full module", len(pkgs))
	}
	diags, err := runner.Run(pkgs, analyzers.All())
	if err != nil {
		t.Fatalf("run suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("repo violation: %s", d)
	}
}

// TestAnalyzerRegistry pins the suite composition: exactly the five
// documented analyzers, resolvable by name.
func TestAnalyzerRegistry(t *testing.T) {
	wantNames := []string{"keyhygiene", "ctxrule", "lockguard", "metricname", "errclass"}
	all := analyzers.All()
	if len(all) != len(wantNames) {
		t.Fatalf("suite has %d analyzers, want %d", len(all), len(wantNames))
	}
	for i, n := range wantNames {
		if all[i].Name != n {
			t.Errorf("analyzer %d = %q, want %q", i, all[i].Name, n)
		}
		if all[i].Doc == "" {
			t.Errorf("analyzer %q has no Doc", n)
		}
	}
	if analyzers.ByName([]string{"keyhygiene", "errclass"}) == nil {
		t.Error("ByName rejected valid names")
	}
	if analyzers.ByName([]string{"nope"}) != nil {
		t.Error("ByName accepted an unknown name")
	}
}
