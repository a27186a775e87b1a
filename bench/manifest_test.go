package main

import (
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_.\-/]{1,200}$`)
)

// TestManifest checks BENCHMARK.json against every rule of the manifest
// contract: a file outside any of them is refused before a single run.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("manifest is %d bytes, over 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("manifest keys %v, want exactly %v", got, want)
	}
	m, err := readManifest() // also rejects unknown keys at every level
	if err != nil {
		t.Fatal(err)
	}

	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want the benchmark's directory only", m.Paths)
	}
	for _, p := range m.Paths {
		if !pathRE.MatchString(p) || filepath.IsAbs(p) || strings.Contains(p, "..") {
			t.Errorf("path %q is not a plain relative path", p)
		}
		err := filepath.WalkDir(filepath.Join("..", p), func(name string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && !d.Type().IsRegular() && !strings.Contains(name, "/out/") {
				t.Errorf("%s is not a regular file", name)
			}
			return err
		})
		if err != nil {
			t.Error(err)
		}
	}

	if n := len(m.Command); n < 1 || n > 32 {
		t.Errorf("command has %d strings", n)
	}
	for _, arg := range m.Command {
		if len(arg) > 200 || strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q", arg)
		}
		// An argument naming something in the repository must name
		// something under paths.
		if _, err := os.Stat(filepath.Join("..", arg)); err == nil && arg != "." && arg != m.Paths[0] &&
			!strings.HasPrefix(arg, m.Paths[0]+"/") {
			t.Errorf("command names %q, outside paths", arg)
		}
	}

	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}

	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for i, w := range m.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if i >= len(specs) || specs[i].name != w.Name {
			t.Errorf("workload %d is %q; the program runs %v", i, w.Name, specs)
		}
	}
	if len(m.Workloads) != len(specs) {
		t.Errorf("manifest lists %d workloads, the program has %d", len(m.Workloads), len(specs))
	}

	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	setup := false
	for _, em := range m.EndToEnd {
		name(em.Name)
		if !unitRE.MatchString(em.Unit) {
			t.Errorf("%s: unit %q", em.Name, em.Unit)
		}
		if em.Better != "higher" && em.Better != "lower" {
			t.Errorf("%s: better = %q", em.Name, em.Better)
		}
		if em.Bound == nil || *em.Bound <= 0 || *em.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", em.Name)
		}
		if em.Name == "setup_s" {
			setup = em.Unit == "s" && em.Better == "lower"
			for _, other := range m.EndToEnd {
				if em.Bound != nil && other.Bound != nil && *other.Bound > *em.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %g", other.Name, *other.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("end_to_end needs setup_s, in s, lower is better")
	}

	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, pm := range m.PerLayer {
		name(pm.Name)
		if !unitRE.MatchString(pm.Unit) {
			t.Errorf("%s: unit %q", pm.Name, pm.Unit)
		}
		if pm.Better != "higher" && pm.Better != "lower" {
			t.Errorf("%s: better = %q", pm.Name, pm.Better)
		}
		if pm.Bound != nil {
			t.Errorf("%s: per-layer metrics have no bound", pm.Name)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, with a 1 s window
// at 1/8 data scale, and checks that every operation succeeded, that the
// restart-and-verify step passed, and that the names and units emitted
// are exactly the manifest's. It asserts nothing about timing.
func TestSmoke(t *testing.T) {
	m, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	units := func(ms []manifestMetric) map[string]string {
		out := make(map[string]string, len(ms))
		for _, mm := range ms {
			out[mm.Name] = mm.Unit
		}
		return out
	}
	check := func(t *testing.T, kind string, got []metric, want map[string]string) {
		t.Helper()
		emitted := make(map[string]bool, len(got))
		for _, g := range got {
			if emitted[g.name] {
				t.Errorf("%s metric %s emitted twice", kind, g.name)
			}
			emitted[g.name] = true
			if unit, ok := want[g.name]; !ok {
				t.Errorf("%s metric %s is not in the manifest", kind, g.name)
			} else if unit != g.unit {
				t.Errorf("%s metric %s: unit %q, manifest says %q", kind, g.name, g.unit, unit)
			}
		}
		for n := range want {
			if !emitted[n] {
				t.Errorf("%s metric %s is in the manifest but was not emitted", kind, n)
			}
		}
	}
	cfg := config{seed: 1, window: time.Second, warmup: 200 * time.Millisecond, dir: t.TempDir(), scale: 8}
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			got, err := measure(context.Background(), cfg, sp, true)
			if err != nil {
				t.Fatal(err)
			}
			if got.failed != 0 || got.attempted == 0 {
				t.Errorf("%d of %d operations failed", got.failed, got.attempted)
			}
			check(t, "end-to-end", got.endToEnd, units(m.EndToEnd))
			check(t, "per-layer", got.perLayer, units(m.PerLayer))
			for _, g := range got.endToEnd {
				if !(g.value > 0) && !raceEnabled {
					t.Errorf("end-to-end metric %s = %v; it must never be 0", g.name, g.value)
				}
			}
			if _, err := os.Stat(filepath.Join(cfg.dir, "trace-"+sp.name+".json")); err != nil {
				t.Error(err)
			}
		})
	}
}
