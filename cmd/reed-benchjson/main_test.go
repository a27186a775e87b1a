package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R)
BenchmarkStreamingUpload/seg=1MiB-8         	      10	 123456789 ns/op	 120.50 MB/s
BenchmarkMuxedGets/inflight=8-8             	       3	   9876543 ns/op	      64 B/op	       2 allocs/op
--- some test chatter that must be ignored
PASS
ok  	repro	1.234s
`

func TestParse(t *testing.T) {
	r, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if r.GoOS != "linux" || r.GoArch != "amd64" || r.Pkg != "repro" {
		t.Fatalf("metadata = %q/%q/%q", r.GoOS, r.GoArch, r.Pkg)
	}
	if len(r.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(r.Benchmarks))
	}
	up := r.Benchmarks[0]
	if up.Name != "BenchmarkStreamingUpload/seg=1MiB" || up.GOMAXPROCS != 8 || up.Iterations != 10 {
		t.Fatalf("first result = %+v", up)
	}
	if up.Metrics["ns/op"] != 123456789 || up.Metrics["MB/s"] != 120.50 {
		t.Fatalf("first metrics = %v", up.Metrics)
	}
	if got := r.Benchmarks[1].Metrics["allocs/op"]; got != 2 {
		t.Fatalf("allocs/op = %v, want 2", got)
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok  \trepro\t0.1s\n")); err == nil {
		t.Fatal("want error when no benchmark lines present")
	}
}

func TestRunWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var out bytes.Buffer
	if err := run(strings.NewReader(sample), &out, []string{"-o", path}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("file has %d benchmarks, want 2", len(rep.Benchmarks))
	}
	if !strings.Contains(out.String(), "wrote 2 benchmark(s)") {
		t.Fatalf("stdout = %q", out.String())
	}
}

// writeBaseline archives the sample run as a baseline file.
func writeBaseline(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	var out bytes.Buffer
	if err := run(strings.NewReader(sample), &out, []string{"-o", path}); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareWithinTolerance(t *testing.T) {
	path := writeBaseline(t)
	// 10% slower ns/op and 10% lower MB/s: inside the 15% default.
	drifted := strings.NewReplacer(
		"123456789 ns/op", "135802467 ns/op",
		"120.50 MB/s", "108.45 MB/s",
	).Replace(sample)
	var out bytes.Buffer
	if err := run(strings.NewReader(drifted), &out, []string{"-compare", path}); err != nil {
		t.Fatalf("10%% drift rejected: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "bench ratchet ok") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestCompareFailsOnRegression(t *testing.T) {
	path := writeBaseline(t)
	// Throughput down 20%: beyond tolerance, must fail and name the
	// metric.
	regressed := strings.Replace(sample, "120.50 MB/s", "96.40 MB/s", 1)
	var out bytes.Buffer
	err := run(strings.NewReader(regressed), &out, []string{"-compare", path})
	if err == nil {
		t.Fatalf("20%% throughput regression accepted\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") || !strings.Contains(out.String(), "MB/s") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestCompareFailsOnSlowdown(t *testing.T) {
	path := writeBaseline(t)
	regressed := strings.Replace(sample, "123456789 ns/op", "160493825 ns/op", 1)
	var out bytes.Buffer
	if err := run(strings.NewReader(regressed), &out, []string{"-compare", path}); err == nil {
		t.Fatalf("30%% ns/op regression accepted\n%s", out.String())
	}
}

func TestCompareFailsWhenBaselineBenchmarkMissing(t *testing.T) {
	path := writeBaseline(t)
	// A benchmark present in the baseline but renamed in the current
	// run is a silent coverage drop — the ratchet must refuse it and
	// name the missing benchmark.
	renamed := strings.Replace(sample, "BenchmarkMuxedGets", "BenchmarkRenamed", 1)
	var out bytes.Buffer
	err := run(strings.NewReader(renamed), &out, []string{"-compare", path})
	if err == nil {
		t.Fatalf("renamed baseline benchmark accepted\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "BenchmarkMuxedGets") || !strings.Contains(err.Error(), "missing from current run") {
		t.Fatalf("error = %v, want it to name the missing benchmark", err)
	}
}

// TestCompareMatchesAcrossGOMAXPROCS: go test names a benchmark
// "Name-N" unless N is 1, so the same benchmark has a different printed
// name on every core count. The ratchet matches on the name without the
// suffix, whichever side has it.
func TestCompareMatchesAcrossGOMAXPROCS(t *testing.T) {
	for printed, want := range map[string]Result{
		"BenchmarkFig8aRekeyUsers-2":    {Name: "BenchmarkFig8aRekeyUsers", GOMAXPROCS: 2},
		"BenchmarkWarmUpload":           {Name: "BenchmarkWarmUpload", GOMAXPROCS: 1},
		"BenchmarkMuxedGets/inflight=8": {Name: "BenchmarkMuxedGets/inflight=8", GOMAXPROCS: 1},
		"BenchmarkX/a-b-16":             {Name: "BenchmarkX/a-b", GOMAXPROCS: 16},
		"BenchmarkX/trailing-":          {Name: "BenchmarkX/trailing-", GOMAXPROCS: 1},
	} {
		if name, procs := splitProcs(printed); name != want.Name || procs != want.GOMAXPROCS {
			t.Errorf("splitProcs(%q) = %q, %d; want %q, %d", printed, name, procs, want.Name, want.GOMAXPROCS)
		}
	}

	oneCPU := strings.ReplaceAll(sample, "-8 ", " ")
	baselineOn1 := filepath.Join(t.TempDir(), "one.json")
	if err := run(strings.NewReader(oneCPU), io.Discard, []string{"-o", baselineOn1}); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct{ baseline, current string }{
		"baseline on 8, run on 1": {writeBaseline(t), oneCPU},
		"baseline on 1, run on 8": {baselineOn1, sample},
	} {
		var out bytes.Buffer
		if err := run(strings.NewReader(tc.current), &out, []string{"-compare", tc.baseline}); err != nil {
			t.Errorf("%s: %v\n%s", name, err, out.String())
		}
		if !strings.Contains(out.String(), "note: BenchmarkStreamingUpload/seg=1MiB baseline ran at GOMAXPROCS=") {
			t.Errorf("%s: no note about the differing core count:\n%s", name, out.String())
		}
	}
}

func TestCompareFailsOnMissingBaselineFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nope", "BENCH_gone.json")
	var out bytes.Buffer
	err := run(strings.NewReader(sample), &out, []string{"-compare", path})
	if err == nil {
		t.Fatal("missing baseline file accepted")
	}
	if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "make bench-json") {
		t.Fatalf("error = %v, want the path and the regeneration hint", err)
	}
}

func TestCompareUnknownUnitNotRatcheted(t *testing.T) {
	// A metric whose unit has no direction (here peak_MB_basic) may
	// drift arbitrarily without failing the ratchet.
	withCustom := strings.Replace(sample, "120.50 MB/s", "120.50 MB/s\t      4.0 peak_MB_basic", 1)
	path := filepath.Join(t.TempDir(), "baseline.json")
	var out bytes.Buffer
	if err := run(strings.NewReader(withCustom), &out, []string{"-o", path}); err != nil {
		t.Fatal(err)
	}
	drifted := strings.Replace(withCustom, "4.0 peak_MB_basic", "400.0 peak_MB_basic", 1)
	out.Reset()
	if err := run(strings.NewReader(drifted), &out, []string{"-compare", path}); err != nil {
		t.Fatalf("100x drift in unratcheted unit failed the ratchet: %v\n%s", err, out.String())
	}
}

func TestBestOfMergesRepeatedRuns(t *testing.T) {
	// Three -count=3 style repeats of one benchmark: best-of must keep
	// the min ns/op and max MB/s across them.
	input := `goos: linux
BenchmarkStreamingUpload-8	10	300 ns/op	100.0 MB/s
BenchmarkStreamingUpload-8	10	200 ns/op	 90.0 MB/s
BenchmarkStreamingUpload-8	10	250 ns/op	110.0 MB/s
PASS
`
	var out bytes.Buffer
	if err := run(strings.NewReader(input), &out, []string{"-bestof"}); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 {
		t.Fatalf("merged to %d benchmarks, want 1", len(rep.Benchmarks))
	}
	m := rep.Benchmarks[0].Metrics
	if m["ns/op"] != 200 || m["MB/s"] != 110 {
		t.Fatalf("best-of metrics = %v, want ns/op=200 MB/s=110", m)
	}
}

func TestBestOfDeflakesCompare(t *testing.T) {
	path := writeBaseline(t)
	// One noisy repeat regresses 40%, but its sibling matches the
	// baseline: best-of must pass where a raw compare would fail.
	noisy := sample + strings.NewReplacer(
		"123456789 ns/op", "172839504 ns/op",
		"120.50 MB/s", "84.35 MB/s",
	).Replace(sample)
	var out bytes.Buffer
	if err := run(strings.NewReader(noisy), &out, []string{"-compare", path, "-bestof"}); err != nil {
		t.Fatalf("best-of did not absorb the noisy repeat: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := run(strings.NewReader(noisy), &out, []string{"-compare", path}); err == nil {
		t.Fatal("raw compare of noisy input passed; best-of test proves nothing")
	}
}

func TestSummaryTableWritten(t *testing.T) {
	base := writeBaseline(t)
	summary := filepath.Join(t.TempDir(), "summary.md")
	regressed := strings.Replace(sample, "120.50 MB/s", "96.40 MB/s", 1)
	var out bytes.Buffer
	if err := run(strings.NewReader(regressed), &out, []string{"-compare", base, "-summary", summary}); err == nil {
		t.Fatal("regression accepted")
	}
	b, err := os.ReadFile(summary)
	if err != nil {
		t.Fatal(err)
	}
	got := string(b)
	for _, want := range []string{
		"| benchmark | metric |",
		"| BenchmarkStreamingUpload/seg=1MiB | MB/s |",
		"**REGRESSION**",
		"| BenchmarkMuxedGets/inflight=8 | ns/op |",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("summary missing %q:\n%s", want, got)
		}
	}
	// Append mode: a second suite's table lands in the same file.
	if err := run(strings.NewReader(sample), &out, []string{"-compare", base, "-summary", summary}); err != nil {
		t.Fatal(err)
	}
	b2, _ := os.ReadFile(summary)
	if n := strings.Count(string(b2), "| benchmark | metric |"); n != 2 {
		t.Fatalf("summary has %d tables after two runs, want 2 (append mode)", n)
	}
}

func TestMetricDirection(t *testing.T) {
	cases := map[string]int{
		"ns/op":             -1,
		"B/op":              -1,
		"allocs/op":         -1,
		"MB/s":              +1,
		"agg_MBps_4shard":   +1,
		"pipe_MBps_basic":   +1,
		"speedup_basic":     +1,
		"lazy_s_500users":   -1,
		"active_s_20pct":    -1,
		"peak_MB_basic":     0,
		"overhead_pct_stub": 0,
	}
	for unit, want := range cases {
		if got := metricDirection(unit); got != want {
			t.Errorf("metricDirection(%q) = %d, want %d", unit, got, want)
		}
	}
}
