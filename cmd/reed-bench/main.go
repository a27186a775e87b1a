// Command reed-bench regenerates every figure of the REED paper's
// evaluation (DSN'16, Section VI) against this implementation and
// prints the same series the paper plots.
//
// Data volumes are scaled (default: a 64 MB file stands in for the
// paper's 2 GB, and the trace replays 9 users over fewer days); raise
// -file-mb / -trace-days toward paper scale when you have the time
// budget. The testbed's 1 Gb/s LAN is emulated by default so
// network-bound plateaus land where the paper's do.
//
// Usage:
//
//	reed-bench                 # all experiments at default scale
//	reed-bench -run fig7       # one experiment
//	reed-bench -file-mb 256 -trace-days 147 -link=true
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/netem"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "reed-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		runSel    = flag.String("run", "all", "experiment: all, fig5a, fig5b, fig6, fig7, fig7c, fig8a, fig8b, fig8c, fig9, fig10, shard, ablations")
		fileMB    = flag.Int("file-mb", 64, "file size in MB standing in for the paper's 2 GB")
		servers   = flag.Int("servers", 4, "number of data-store servers")
		link      = flag.Bool("link", true, "emulate the paper's 1 Gb/s LAN (~116 MB/s effective)")
		traceDays = flag.Int("trace-days", 30, "days of the synthetic FSL-style trace for fig9")
		traceMB   = flag.Int("trace-user-mb", 4, "logical MB per user per day in the trace")
		seed      = flag.Int64("seed", 1, "workload seed")
	)
	flag.Parse()

	o := experiments.Options{
		FileBytes:   *fileMB << 20,
		DataServers: *servers,
		Seed:        *seed,
	}
	if *link {
		o.LinkBandwidth = netem.GigabitEffective
	}
	to := experiments.TraceOptions{
		Days:            *traceDays,
		BytesPerUserDay: uint64(*traceMB) << 20,
		Seed:            *seed,
	}

	fmt.Printf("reed-bench: file=%dMB servers=%d link=%v trace=%dd x %dMB/user/day\n\n",
		*fileMB, *servers, *link, *traceDays, *traceMB)

	want := func(name string) bool { return *runSel == "all" || *runSel == name }
	type exp struct {
		name string
		fn   func(experiments.Options, experiments.TraceOptions) error
	}
	all := []exp{
		{"fig5a", runFig5a},
		{"fig5b", runFig5b},
		{"fig6", runFig6},
		{"fig7", runFig7},
		{"fig7c", runFig7c},
		{"fig8a", runFig8a},
		{"fig8b", runFig8b},
		{"fig8c", runFig8c},
		{"fig9", runFig9},
		{"fig10", runFig10},
		{"shard", runShard},
		{"ablations", runAblations},
	}
	var ran int
	for _, e := range all {
		if !want(e.name) {
			continue
		}
		start := time.Now()
		if err := e.fn(o, to); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Printf("  [%s completed in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("unknown experiment %q", *runSel)
	}
	return nil
}

func header(title string) {
	fmt.Println(title)
	fmt.Println(strings.Repeat("-", len(title)))
}

func runFig5a(o experiments.Options, _ experiments.TraceOptions) error {
	header("Figure 5(a): MLE key generation speed vs average chunk size (batch=1024)")
	points, err := experiments.Fig5aKeyGenVsChunkSize(o)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-10s %s\n", "chunk size", "chunks", "speed")
	for _, p := range points {
		fmt.Printf("%-14s %-10d %.2f MB/s\n", fmt.Sprintf("%d KB", p.ChunkKB), p.Chunks, p.MBps)
	}
	return nil
}

func runFig5b(o experiments.Options, _ experiments.TraceOptions) error {
	header("Figure 5(b): MLE key generation speed vs batch size (8 KB chunks)")
	points, err := experiments.Fig5bKeyGenVsBatchSize(o)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %s\n", "batch", "speed")
	for _, p := range points {
		fmt.Printf("%-12d %.2f MB/s\n", p.BatchSize, p.MBps)
	}
	return nil
}

func runFig6(o experiments.Options, _ experiments.TraceOptions) error {
	header("Figure 6: encryption speed vs average chunk size (2 threads)")
	points, err := experiments.Fig6EncryptionSpeed(o)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-12s %s\n", "chunk size", "scheme", "speed")
	for _, p := range points {
		fmt.Printf("%-12s %-12s %.0f MB/s\n", fmt.Sprintf("%d KB", p.ChunkKB), p.Scheme, p.MBps)
	}
	return nil
}

func runFig7(o experiments.Options, _ experiments.TraceOptions) error {
	header("Figure 7(a,b): upload (1st/2nd) and download speed vs chunk size")
	points, err := experiments.Fig7UploadDownload(o)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-12s %-14s %-14s %s\n", "chunk size", "scheme", "upload 1st", "upload 2nd", "download")
	for _, p := range points {
		fmt.Printf("%-12s %-12s %-14s %-14s %.1f MB/s\n",
			fmt.Sprintf("%d KB", p.ChunkKB), p.Scheme,
			fmt.Sprintf("%.1f MB/s", p.FirstUpMBps),
			fmt.Sprintf("%.1f MB/s", p.SecondUpMBps),
			p.DownloadMBps)
	}
	return nil
}

func runFig7c(o experiments.Options, _ experiments.TraceOptions) error {
	header("Figure 7(c): aggregate upload speed vs number of clients (enhanced)")
	points, err := experiments.Fig7cMultiClient(o, nil)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %-16s %s\n", "clients", "1st upload", "2nd upload")
	for _, p := range points {
		fmt.Printf("%-10d %-16s %.1f MB/s\n", p.Clients,
			fmt.Sprintf("%.1f MB/s", p.FirstUpMBps), p.SecondUpMBps)
	}
	return nil
}

func runShard(o experiments.Options, _ experiments.TraceOptions) error {
	header("Shard saturation: aggregate PUT speed vs shard count (3 clients, per-shard ports)")
	// The per-shard ingress port must be the bottleneck; the gigabit
	// client-link emulation would hide it.
	o.LinkBandwidth = 0
	points, err := experiments.ShardSaturation(o, []int{1, 2, 4}, 3)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %-10s %s\n", "shards", "clients", "aggregate")
	for _, p := range points {
		fmt.Printf("%-10d %-10d %.1f MB/s\n", p.Shards, p.Clients, p.AggregateMBps)
	}
	return nil
}

func printRekey(points []experiments.RekeyPoint, xLabel string) {
	fmt.Printf("%-14s %-12s %s\n", xLabel, "lazy", "active")
	for _, p := range points {
		fmt.Printf("%-14d %-12s %.3f s\n", p.X, fmt.Sprintf("%.3f s", p.LazySec), p.ActiveSec)
	}
}

func runFig8a(o experiments.Options, _ experiments.TraceOptions) error {
	header("Figure 8(a): rekeying delay vs total users (20% revoked)")
	points, err := experiments.Fig8aRekeyVsUsers(o, nil)
	if err != nil {
		return err
	}
	printRekey(points, "users")
	return nil
}

func runFig8b(o experiments.Options, _ experiments.TraceOptions) error {
	header("Figure 8(b): rekeying delay vs revocation ratio (500 users)")
	points, err := experiments.Fig8bRekeyVsRatio(o, 0, nil)
	if err != nil {
		return err
	}
	printRekey(points, "ratio %")
	return nil
}

func runFig8c(o experiments.Options, _ experiments.TraceOptions) error {
	header("Figure 8(c): rekeying delay vs file size (500 users, 20% revoked)")
	points, err := experiments.Fig8cRekeyVsFileSize(o, 0, nil)
	if err != nil {
		return err
	}
	printRekey(points, "file MB")
	return nil
}

func runFig9(o experiments.Options, to experiments.TraceOptions) error {
	header("Figure 9: cumulative storage overhead over daily backups (trace-driven)")
	days, err := experiments.Fig9StorageOverhead(o, to)
	if err != nil {
		return err
	}
	const gb = 1 << 30
	fmt.Printf("%-6s %-14s %-14s %-12s %s\n", "day", "logical", "physical", "stub", "saving")
	for i, d := range days {
		// Print a sparse series like the paper's log-scale plot.
		if len(days) > 12 && i%(len(days)/10) != 0 && i != len(days)-1 {
			continue
		}
		fmt.Printf("%-6d %-14s %-14s %-12s %.2f%%\n", d.Day,
			fmt.Sprintf("%.3f GB", float64(d.LogicalBytes)/gb),
			fmt.Sprintf("%.3f GB", float64(d.PhysicalBytes)/gb),
			fmt.Sprintf("%.3f GB", float64(d.StubBytes)/gb),
			d.Saving()*100)
	}
	last := days[len(days)-1]
	fmt.Printf("total saving after %d days: %.2f%% (paper: 98.6%% over 147 days)\n",
		last.Day, last.Saving()*100)
	return nil
}

func runFig10(o experiments.Options, to experiments.TraceOptions) error {
	header("Figure 10: trace-driven upload/download speed over days")
	days, err := experiments.Fig10TraceDriven(o, to)
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %-14s %s\n", "day", "upload", "download")
	for _, d := range days {
		fmt.Printf("%-6d %-14s %.1f MB/s\n", d.Day,
			fmt.Sprintf("%.1f MB/s", d.UploadMBps), d.DownloadMBps)
	}
	return nil
}

func runAblations(o experiments.Options, _ experiments.TraceOptions) error {
	header("Ablation: key-generation request batching")
	batching, err := experiments.AblationBatching(o)
	if err != nil {
		return err
	}
	for _, p := range batching {
		fmt.Printf("batch=%-6d %.2f MB/s\n", p.BatchSize, p.MBps)
	}
	fmt.Println()

	header("Ablation: MLE key cache (second upload of identical data)")
	cache, err := experiments.AblationKeyCache(o)
	if err != nil {
		return err
	}
	for _, p := range cache {
		fmt.Printf("cache=%-6v %.1f MB/s\n", p.CacheEnabled, p.SecondUpMBps)
	}
	fmt.Println()

	header("Ablation: encryption worker threads (8 KB chunks)")
	threads, err := experiments.AblationThreads(o, nil)
	if err != nil {
		return err
	}
	for _, p := range threads {
		fmt.Printf("workers=%-4d %-10s %.0f MB/s\n", p.Workers, p.Scheme, p.MBps)
	}
	fmt.Println()

	header("Ablation: stub size (storage tax and active rekey cost)")
	stubs, err := experiments.AblationStubSize(o, nil)
	if err != nil {
		return err
	}
	for _, p := range stubs {
		fmt.Printf("stub=%-4dB overhead=%.3f%% active-rekey=%.3fs\n",
			p.StubSize, p.StorageOverheadPct, p.ActiveRekeySec)
	}
	return nil
}
