// Command reed-benchjson converts `go test -bench` text output into a
// stable JSON document, so benchmark results can be archived, diffed,
// and plotted without scraping Go's human-oriented format.
//
// Usage:
//
//	go test -run NONE -bench=BenchmarkStreamingUpload . | reed-benchjson -o BENCH_pipeline.json
//
// Every benchmark line becomes one record with its name, the GOMAXPROCS
// it ran at (the `-N` suffix go test appends to the name, split off into
// its own field), iteration count, and all reported value/unit pairs
// (ns/op, MB/s, B/op, allocs/op, and any custom b.ReportMetric units).
// Context lines
// (goos, goarch, pkg, cpu) are carried through as metadata. Input that
// contains no benchmark lines is an error — it usually means the
// -bench pattern matched nothing.
//
// With -compare, the parsed input is additionally ratcheted against a
// committed baseline document:
//
//	go test -run NONE -bench=... . | reed-benchjson -compare BENCH_pipeline.json -tolerance 0.15
//
// Every benchmark in the baseline must appear in the current run (a
// rename or deletion fails the ratchet rather than silently dropping
// coverage; names match without the `-N` suffix, so a baseline recorded
// on one core count ratchets a run on another, with a note) and is
// checked metric by metric: time- and allocation-style
// units (ns/op, B/op, allocs/op and custom *_s_* delays in seconds) may
// not grow by more than the tolerance, throughput-style units (MB/s and
// custom *MBps* /
// *speedup* metrics) may not shrink by more than it. Any regression is
// printed and the exit status is non-zero, so CI fails loudly instead
// of letting performance drift.
//
// -bestof merges repeated benchmark names — as produced by
// `go test -count=3` — keeping each metric's best value (max for
// throughput, min for times/allocations), which de-flakes the ratchet
// on noisy runners. -summary FILE appends a per-metric markdown delta
// table, suitable for $GITHUB_STEP_SUMMARY.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Stdin, os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "reed-benchjson:", err)
		os.Exit(1)
	}
}

// Result is one parsed benchmark line.
type Result struct {
	Name string `json:"name"`
	// GOMAXPROCS is the `-N` suffix go test printed after the name (1
	// when it printed none).
	GOMAXPROCS int                `json:"gomaxprocs"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the output document.
type Report struct {
	GoOS       string   `json:"goos,omitempty"`
	GoArch     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func run(in io.Reader, out io.Writer, args []string) error {
	fs := flag.NewFlagSet("reed-benchjson", flag.ContinueOnError)
	outPath := fs.String("o", "", "output file (default stdout)")
	comparePath := fs.String("compare", "", "baseline JSON to ratchet against (exit 1 on regression)")
	tolerance := fs.Float64("tolerance", 0.15, "allowed fractional regression per metric with -compare")
	bestOf := fs.Bool("bestof", false, "merge repeated benchmark names (go test -count=N), keeping each metric's best value")
	summaryPath := fs.String("summary", "", "with -compare, append a markdown delta table to this file (e.g. $GITHUB_STEP_SUMMARY)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	report, err := parse(in)
	if err != nil {
		return err
	}
	if *bestOf {
		report = mergeBestOf(report)
	}
	if *comparePath != "" {
		baseline, err := loadReport(*comparePath)
		if err != nil {
			return err
		}
		return compare(out, baseline, report, *tolerance, *summaryPath)
	}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if *outPath == "" {
		_, err = out.Write(b)
		return err
	}
	if err := os.WriteFile(*outPath, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %d benchmark(s) to %s\n", len(report.Benchmarks), *outPath)
	return nil
}

// loadReport reads a previously archived JSON document.
func loadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("baseline %s unreadable: %w (renamed? regenerate with 'make bench-json' and commit it)", path, err)
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	if len(r.Benchmarks) == 0 {
		return nil, fmt.Errorf("baseline %s holds no benchmarks", path)
	}
	return &r, nil
}

// splitProcs splits the name go test prints into the benchmark's own
// name and its GOMAXPROCS: go test appends "-N" unless N is 1. (A
// sub-benchmark whose own name ends in "-<digits>" run at GOMAXPROCS=1
// is indistinguishable; benchstat reads it the same way.)
func splitProcs(printed string) (name string, procs int) {
	if i := strings.LastIndexByte(printed, '-'); i > 0 {
		if n, err := strconv.Atoi(printed[i+1:]); err == nil && n > 0 {
			return printed[:i], n
		}
	}
	return printed, 1
}

// metricDirection classifies a unit: -1 means lower is better (times,
// allocations), +1 means higher is better (throughput, speedups), 0
// means unratcheted (counts, sizes, and units we cannot classify).
func metricDirection(unit string) int {
	switch unit {
	case "ns/op", "B/op", "allocs/op":
		return -1
	case "MB/s":
		return +1
	}
	if strings.Contains(unit, "MBps") || strings.Contains(unit, "speedup") {
		return +1
	}
	if strings.Contains(unit, "_s_") { // a delay in seconds, e.g. lazy_s_500users
		return -1
	}
	return 0
}

// mergeBestOf folds repeated benchmark names (as emitted by
// `go test -count=N`) into a single record per name, keeping each
// metric's best value: max where higher is better, min where lower is
// better, and the first observation for unratcheted units. Comparing
// best-of-N against the baseline de-flakes the ratchet: one noisy run
// cannot fail CI when its siblings hit the baseline.
func mergeBestOf(r *Report) *Report {
	merged := &Report{GoOS: r.GoOS, GoArch: r.GoArch, Pkg: r.Pkg, CPU: r.CPU, Benchmarks: []Result{}}
	index := make(map[string]int)
	for _, b := range r.Benchmarks {
		key := b.Name + "-" + strconv.Itoa(b.GOMAXPROCS) // -cpu 1,2 repeats stay apart
		i, seen := index[key]
		if !seen {
			index[key] = len(merged.Benchmarks)
			cp := Result{Name: b.Name, GOMAXPROCS: b.GOMAXPROCS, Iterations: b.Iterations, Metrics: make(map[string]float64, len(b.Metrics))}
			for unit, v := range b.Metrics {
				cp.Metrics[unit] = v
			}
			merged.Benchmarks = append(merged.Benchmarks, cp)
			continue
		}
		dst := &merged.Benchmarks[i]
		for unit, v := range b.Metrics {
			old, ok := dst.Metrics[unit]
			if !ok {
				dst.Metrics[unit] = v
				continue
			}
			switch dir := metricDirection(unit); {
			case dir > 0 && v > old:
				dst.Metrics[unit] = v
			case dir < 0 && v < old:
				dst.Metrics[unit] = v
			}
		}
	}
	return merged
}

// deltaRow is one line of the -summary markdown table.
type deltaRow struct {
	bench, unit string
	was, now    float64
	change      float64 // fractional, (now-was)/was
	status      string  // "ok", "REGRESSION", or "unratcheted"
}

// compare ratchets current against baseline. Every baseline benchmark
// must be present in the current run — a rename or deletion is a hard
// error, not a silent coverage drop — and every direction-classified
// metric present in both may not regress beyond the tolerance. New
// benchmarks in the current run (not yet archived) pass through
// untouched.
func compare(out io.Writer, baseline, current *Report, tolerance float64, summaryPath string) error {
	base := make(map[string]Result, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		base[b.Name] = b
	}
	seen := make(map[string]bool, len(base))
	var rows []deltaRow
	var regressions, checked int
	for _, cur := range current.Benchmarks {
		old, ok := base[cur.Name]
		if !ok {
			continue
		}
		seen[cur.Name] = true
		if old.GOMAXPROCS != cur.GOMAXPROCS {
			fmt.Fprintf(out, "note: %s baseline ran at GOMAXPROCS=%d, this run at %d\n", cur.Name, old.GOMAXPROCS, cur.GOMAXPROCS)
		}
		units := make([]string, 0, len(old.Metrics))
		for unit := range old.Metrics {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			was := old.Metrics[unit]
			now, ok := cur.Metrics[unit]
			if !ok || was <= 0 {
				continue
			}
			dir := metricDirection(unit)
			row := deltaRow{bench: cur.Name, unit: unit, was: was, now: now, change: (now - was) / was}
			if dir == 0 {
				row.status = "unratcheted"
				rows = append(rows, row)
				continue
			}
			checked++
			row.status = "ok"
			if float64(dir)*row.change < -tolerance {
				regressions++
				row.status = "REGRESSION"
				fmt.Fprintf(out, "REGRESSION %s %s: %.4g -> %.4g (%+.1f%%, tolerance %.0f%%)\n",
					cur.Name, unit, was, now, row.change*100, tolerance*100)
			}
			rows = append(rows, row)
		}
	}
	if summaryPath != "" {
		if err := writeSummary(summaryPath, rows, tolerance); err != nil {
			return err
		}
	}
	var missing []string
	for _, b := range baseline.Benchmarks {
		if !seen[b.Name] {
			missing = append(missing, b.Name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("baseline benchmark(s) missing from current run: %s (renamed or removed? refresh the baseline with 'make bench-json')",
			strings.Join(missing, ", "))
	}
	if checked == 0 {
		return fmt.Errorf("no comparable metrics between baseline and current run")
	}
	if regressions > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond %.0f%%", regressions, tolerance*100)
	}
	fmt.Fprintf(out, "bench ratchet ok: %d metric(s) within %.0f%% of baseline\n", checked, tolerance*100)
	return nil
}

// writeSummary appends a markdown per-metric delta table to path. The
// file is opened in append mode so several ratchet suites can share one
// $GITHUB_STEP_SUMMARY.
func writeSummary(path string, rows []deltaRow, tolerance float64) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("summary %s: %w", path, err)
	}
	defer f.Close()
	var sb strings.Builder
	fmt.Fprintf(&sb, "| benchmark | metric | baseline | current | delta | status |\n")
	fmt.Fprintf(&sb, "|---|---|---:|---:|---:|---|\n")
	for _, r := range rows {
		status := r.status
		if status == "REGRESSION" {
			status = "**REGRESSION**"
		}
		fmt.Fprintf(&sb, "| %s | %s | %.4g | %.4g | %+.1f%% | %s |\n",
			r.bench, r.unit, r.was, r.now, r.change*100, status)
	}
	fmt.Fprintf(&sb, "\n_tolerance ±%.0f%% on direction-classified metrics_\n\n", tolerance*100)
	_, err = f.WriteString(sb.String())
	return err
}

// parse reads `go test -bench` output. Lines it does not recognize
// (test chatter, PASS/ok trailers) are skipped, so piping a full test
// run through is safe.
func parse(in io.Reader) (*Report, error) {
	r := &Report{Benchmarks: []Result{}}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			r.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			r.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			r.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			r.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			res, ok := parseBenchLine(line)
			if ok {
				r.Benchmarks = append(r.Benchmarks, res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(r.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines in input (did -bench match anything?)")
	}
	return r, nil
}

// parseBenchLine parses one result line:
//
//	BenchmarkName/sub-8   10   123456 ns/op   120.5 MB/s   64 B/op   2 allocs/op
//
// i.e. name with its GOMAXPROCS suffix, iteration count, then
// value/unit pairs.
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	name, procs := splitProcs(fields[0])
	res := Result{Name: name, GOMAXPROCS: procs, Iterations: iters, Metrics: make(map[string]float64)}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		res.Metrics[fields[i+1]] = v
	}
	return res, true
}
