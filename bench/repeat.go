package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// manifest is BENCHMARK.json, at the root of the repository.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

const manifestPath = "../BENCHMARK.json" // the benchmark runs from its own directory

func readManifest() (*manifest, error) {
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		return nil, err
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("%s: %w", manifestPath, err)
	}
	return &m, nil
}

// quartiles returns what Python's statistics.quantiles(values, n=4)
// returns, the rule the benchmark's acceptance is judged by.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// repeatability runs every workload n times at cfg.seed, each run a
// fresh process, twice over; prints per workload and end-to-end metric
// the median, the quartiles and the spread (Q3−Q1)/median of each set;
// and fails if the two sets' medians disagree, in either direction, by
// more than the metric's bound.
func repeatability(ctx context.Context, cfg config, n int) error {
	if n < 2 {
		return fmt.Errorf("-repeat needs at least 2 runs for quartiles")
	}
	m, err := readManifest()
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// values[set][workload][metric] holds one number per run.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = make(map[string]map[string][]float64)
		for _, w := range m.Workloads {
			values[set][w.Name] = make(map[string][]float64)
			for i := 0; i < n; i++ {
				cmd := exec.CommandContext(ctx, self, "-workload", w.Name, "-seed", strconv.FormatInt(cfg.seed, 10),
					"-seconds", strconv.FormatFloat(cfg.window.Seconds(), 'f', -1, 64), "-dir", cfg.dir)
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s run %d: %w", w.Name, i+1, err)
				}
				var last []byte
				for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
					last = append(last[:0], sc.Bytes()...)
				}
				var res result
				if err := json.Unmarshal(last, &res); err != nil {
					return fmt.Errorf("%s run %d: last line: %w", w.Name, i+1, err)
				}
				for name, stat := range res.Metrics {
					values[set][w.Name][name] = append(values[set][w.Name][name], stat.Value)
				}
				fmt.Fprintf(os.Stderr, "set %d %s run %d done\n", set+1, w.Name, i+1)
			}
		}
	}

	fmt.Println("| workload | metric | unit | median 1 | Q1..Q3 1 | spread 1 | median 2 | spread 2 | medians differ | bound |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|")
	failed := false
	for _, w := range m.Workloads {
		for _, em := range m.EndToEnd {
			a1, b1, c1 := quartiles(values[0][w.Name][em.Name])
			a2, b2, c2 := quartiles(values[1][w.Name][em.Name])
			differ := math.Abs(b2-b1) / math.Min(b1, b2)
			verdict, bound := "", 0.0
			if em.Bound != nil {
				bound = *em.Bound
			}
			if !(differ <= bound) { // a zero median gives NaN or Inf, which fails too
				verdict, failed = " FAIL", true
			}
			fmt.Printf("| %s | %s | %s | %.4g | %.4g..%.4g | %.3f | %.4g | %.3f | %.3f%s | %.2f |\n",
				w.Name, em.Name, em.Unit, b1, a1, c1, (c1-a1)/b1, b2, (c2-a2)/b2, differ, verdict, bound)
		}
	}
	if failed {
		return fmt.Errorf("two sets of %d runs disagree by more than a metric's bound", n)
	}
	return nil
}
