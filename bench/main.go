// Command bench (reed-perf) is the repository's benchmark: four
// closed-loop workloads against an in-process REED deployment on the
// durable path — disk:// backends with fsync on, raw loopback TCP — five
// end-to-end metrics from an untraced pass and a per-layer ledger from a
// traced pass of the same workload and seed. See README.md.
//
//	go -C bench run . -workload cold_upload -seed 1 -seconds 15 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// result is the last line of output.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]jsonStat `json:"metrics"`
}

type jsonStat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workload = flag.String("workload", "all", "cold_upload, snapshot_churn, restore, rekey_mix, or all")
		seed     = flag.Int64("seed", 1, "every input is generated from this")
		seconds  = flag.Float64("seconds", 15, "length of the timed window")
		trace    = flag.Int("trace", 0, "1: also run a traced pass and report the per-layer metrics")
		dir      = flag.String("dir", "", "where the disk:// stores go (default out/ beside the benchmark; tmpfs is refused unless given here)")
		repeat   = flag.Int("repeat", 0, "N > 0: run the repeatability harness, two sets of N runs of every workload")
	)
	flag.Parse()
	cfg := config{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		warmup: 2 * time.Second,
		dir:    *dir,
		scale:  1,
	}
	if err := mainErr(cfg, *workload, *trace != 0, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "reed-perf:", err)
		os.Exit(1)
	}
}

func mainErr(cfg config, workload string, traced bool, repeat int) error {
	defaultDir := cfg.dir == ""
	if defaultDir {
		cfg.dir = "out"
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	if defaultDir && fsType(cfg.dir) == "tmpfs" {
		return fmt.Errorf("%s is on tmpfs, where fsync costs nothing; name a directory on a real filesystem with -dir", cfg.dir)
	}
	abs, err := filepath.Abs(cfg.dir) // disk:// DSNs take absolute paths
	if err != nil {
		return err
	}
	cfg.dir = abs
	ctx := context.Background()
	if repeat > 0 {
		return repeatability(ctx, cfg, repeat)
	}
	ran := false
	for _, sp := range specs {
		if workload != "all" && workload != sp.name {
			continue
		}
		ran = true
		m, err := measure(ctx, cfg, sp, traced)
		if err != nil {
			return err
		}
		res := m.result()
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d operations failed", sp.name, res.Failed, res.Attempted)
		}
	}
	if !ran {
		return fmt.Errorf("unknown workload %q", workload)
	}
	return nil
}

// measured is one workload's numbers: the end-to-end metrics of an
// untraced pass and, for a traced run, the per-layer metrics of a traced
// pass made after it.
type measured struct {
	endToEnd  []metric
	perLayer  []metric
	attempted int
	failed    int
}

// result is the output line: the end-to-end metrics, or for a traced
// run the per-layer metrics.
func (m *measured) result() *result {
	metrics := m.endToEnd
	if m.perLayer != nil {
		metrics = m.perLayer
	}
	res := &result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed,
		Metrics: make(map[string]jsonStat, len(metrics))}
	for _, mt := range metrics {
		res.Metrics[mt.name] = jsonStat{Value: mt.value, Unit: mt.unit}
	}
	return res
}

// measure runs one workload and prints every metric by name.
func measure(ctx context.Context, cfg config, sp spec, traced bool) (*measured, error) {
	ports, err := reservePorts()
	if err != nil {
		return nil, err
	}
	defer ports.release()
	cfg.ports = ports
	plain, err := runPass(ctx, cfg, sp, false)
	if err != nil {
		return nil, err
	}
	m := &measured{endToEnd: plain.endToEnd(), attempted: plain.attempted, failed: plain.failed}
	fmt.Printf("# %s seed=%d window=%.3fs ops=%d go=%s fs=%s\n",
		sp.name, cfg.seed, plain.seconds(), len(plain.ops), runtime.Version(), fsType(cfg.dir))
	printMetrics(m.endToEnd)
	if traced {
		tp, err := runPass(ctx, cfg, sp, true)
		if err != nil {
			return nil, err
		}
		m.attempted += tp.attempted
		m.failed += tp.failed
		if m.perLayer, err = perLayer(ctx, cfg, plain, tp); err != nil {
			return nil, err
		}
		printMetrics(m.perLayer)
	}
	return m, nil
}

func printMetrics(ms []metric) {
	for _, m := range ms {
		if m.n > 0 {
			fmt.Printf("%-36s %14.6g %-8s n=%d\n", m.name, m.value, m.unit, m.n)
		} else {
			fmt.Printf("%-36s %14.6g %s\n", m.name, m.value, m.unit)
		}
	}
}

// fsType names the filesystem holding dir, for the filesystems a
// benchmark directory is likely to be on.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%X", uint32(st.Type))
}
