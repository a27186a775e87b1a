package reed_test

// One testing.B benchmark per figure of the paper's evaluation
// (Section VI), plus the ablations DESIGN.md calls out. Each benchmark
// drives the same harness as cmd/reed-bench at a reduced default scale
// (set REED_BENCH_MB to raise it, e.g. REED_BENCH_MB=64) and reports the
// figure's series as custom metrics, so `go test -bench=.` regenerates
// the paper's curves end to end. No number here is checked against a
// recorded baseline: the repository benchmark (bench/, declared in
// BENCHMARK.json) is what compares throughput across commits.

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/netem"
	"repro/internal/oprf"
)

var (
	benchKeyOnce sync.Once
	benchKMKey   *oprf.ServerKey
)

// benchOptions builds the shared experiment options. The file size
// stands in for the paper's 2 GB test file.
func benchOptions(b *testing.B) experiments.Options {
	b.Helper()
	benchKeyOnce.Do(func() {
		key, err := oprf.GenerateServerKey(oprf.DefaultBits, nil)
		if err != nil {
			b.Fatalf("oprf key: %v", err)
		}
		benchKMKey = key
	})
	fileMB := 8
	if env := os.Getenv("REED_BENCH_MB"); env != "" {
		if v, err := strconv.Atoi(env); err == nil && v > 0 {
			fileMB = v
		}
	}
	// REED_BENCH_LINK_MBPS overrides the emulated client link: 0 removes
	// the throttle entirely (the "unthrottled ceiling" runs recorded in
	// EXPERIMENTS.md), any other value is MB/s. Default is the paper's
	// 116 MB/s effective gigabit LAN.
	linkBW := float64(netem.GigabitEffective)
	if env := os.Getenv("REED_BENCH_LINK_MBPS"); env != "" {
		if v, err := strconv.Atoi(env); err == nil && v >= 0 {
			linkBW = float64(v) * (1 << 20)
		}
	}
	return experiments.Options{
		FileBytes:     fileMB << 20,
		DataServers:   4,
		KMKey:         benchKMKey,
		LinkBandwidth: linkBW,
		Seed:          1,
	}
}

// BenchmarkFig5aKeyGenChunkSize reproduces Figure 5(a): MLE key
// generation speed versus average chunk size, batch fixed at the
// client's default (1024; the paper's is 256).
func BenchmarkFig5aKeyGenChunkSize(b *testing.B) {
	o := benchOptions(b)
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig5aKeyGenVsChunkSize(o)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			b.ReportMetric(p.MBps, fmt.Sprintf("MBps_%dKB", p.ChunkKB))
		}
	}
}

// BenchmarkFig5bKeyGenBatchSize reproduces Figure 5(b): key generation
// speed versus batch size, 8 KB chunks.
func BenchmarkFig5bKeyGenBatchSize(b *testing.B) {
	o := benchOptions(b)
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig5bKeyGenVsBatchSize(o)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			b.ReportMetric(p.MBps, fmt.Sprintf("MBps_batch%d", p.BatchSize))
		}
	}
}

// BenchmarkFig6Encryption reproduces Figure 6: basic vs enhanced
// encryption speed across chunk sizes, two worker threads.
func BenchmarkFig6Encryption(b *testing.B) {
	o := benchOptions(b)
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig6EncryptionSpeed(o)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			b.ReportMetric(p.MBps, fmt.Sprintf("MBps_%s_%dKB", p.Scheme, p.ChunkKB))
		}
	}
}

// BenchmarkFig7aUpload and BenchmarkFig7bDownload reproduce Figures
// 7(a) and 7(b): single-client upload (first and second) and download
// speeds. One harness run produces both figures; the two benchmarks
// report the respective series.
func BenchmarkFig7aUpload(b *testing.B) {
	o := benchOptions(b)
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig7UploadDownload(o)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			b.ReportMetric(p.FirstUpMBps, fmt.Sprintf("up1_MBps_%s_%dKB", p.Scheme, p.ChunkKB))
			b.ReportMetric(p.SecondUpMBps, fmt.Sprintf("up2_MBps_%s_%dKB", p.Scheme, p.ChunkKB))
		}
	}
}

func BenchmarkFig7bDownload(b *testing.B) {
	o := benchOptions(b)
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig7UploadDownload(o)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			b.ReportMetric(p.DownloadMBps, fmt.Sprintf("down_MBps_%s_%dKB", p.Scheme, p.ChunkKB))
		}
	}
}

// BenchmarkFig7cMultiClient reproduces Figure 7(c): aggregate upload
// speed versus the number of concurrent clients.
func BenchmarkFig7cMultiClient(b *testing.B) {
	o := benchOptions(b)
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig7cMultiClient(o, []int{1, 2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			b.ReportMetric(p.FirstUpMBps, fmt.Sprintf("agg1_MBps_%dclients", p.Clients))
			b.ReportMetric(p.SecondUpMBps, fmt.Sprintf("agg2_MBps_%dclients", p.Clients))
		}
	}
}

// BenchmarkFig8aRekeyUsers reproduces Figure 8(a): rekeying delay versus
// total users at a 20% revocation ratio.
func BenchmarkFig8aRekeyUsers(b *testing.B) {
	o := benchOptions(b)
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig8aRekeyVsUsers(o, []int{100, 300, 500})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			b.ReportMetric(p.LazySec, fmt.Sprintf("lazy_s_%dusers", p.X))
			b.ReportMetric(p.ActiveSec, fmt.Sprintf("active_s_%dusers", p.X))
		}
	}
}

// BenchmarkFig8bRekeyRatio reproduces Figure 8(b): rekeying delay versus
// revocation ratio with 500 users.
func BenchmarkFig8bRekeyRatio(b *testing.B) {
	o := benchOptions(b)
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig8bRekeyVsRatio(o, 0, []int{5, 20, 50})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			b.ReportMetric(p.LazySec, fmt.Sprintf("lazy_s_%dpct", p.X))
			b.ReportMetric(p.ActiveSec, fmt.Sprintf("active_s_%dpct", p.X))
		}
	}
}

// BenchmarkFig8cRekeyFileSize reproduces Figure 8(c): rekeying delay
// versus rekeyed file size with 500 users.
func BenchmarkFig8cRekeyFileSize(b *testing.B) {
	o := benchOptions(b)
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig8cRekeyVsFileSize(o, 0, []int{1, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			b.ReportMetric(p.LazySec, fmt.Sprintf("lazy_s_%dMB", p.X))
			b.ReportMetric(p.ActiveSec, fmt.Sprintf("active_s_%dMB", p.X))
		}
	}
}

// BenchmarkFig9StorageOverhead reproduces Figure 9: cumulative storage
// saving over daily trace-driven backups.
func BenchmarkFig9StorageOverhead(b *testing.B) {
	o := benchOptions(b)
	to := experiments.TraceOptions{Days: 20, BytesPerUserDay: 2 << 20}
	for i := 0; i < b.N; i++ {
		days, err := experiments.Fig9StorageOverhead(o, to)
		if err != nil {
			b.Fatal(err)
		}
		last := days[len(days)-1]
		b.ReportMetric(last.Saving()*100, "saving_pct")
		b.ReportMetric(float64(last.PhysicalBytes)/(1<<20), "physical_MB")
		b.ReportMetric(float64(last.StubBytes)/(1<<20), "stub_MB")
	}
}

// BenchmarkFig10TraceDriven reproduces Figure 10: trace-driven upload
// and download speed over seven days of backups.
func BenchmarkFig10TraceDriven(b *testing.B) {
	o := benchOptions(b)
	to := experiments.TraceOptions{Users: 4, Days: 7, BytesPerUserDay: 1 << 20}
	for i := 0; i < b.N; i++ {
		days, err := experiments.Fig10TraceDriven(o, to)
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range days {
			b.ReportMetric(d.UploadMBps, fmt.Sprintf("up_MBps_day%d", d.Day))
			b.ReportMetric(d.DownloadMBps, fmt.Sprintf("down_MBps_day%d", d.Day))
		}
	}
}

// BenchmarkAblationNoBatching quantifies request batching.
func BenchmarkAblationNoBatching(b *testing.B) {
	o := benchOptions(b)
	for i := 0; i < b.N; i++ {
		points, err := experiments.AblationBatching(o)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			b.ReportMetric(p.MBps, fmt.Sprintf("MBps_batch%d", p.BatchSize))
		}
	}
}

// BenchmarkAblationNoKeyCache quantifies the MLE key cache.
func BenchmarkAblationNoKeyCache(b *testing.B) {
	o := benchOptions(b)
	for i := 0; i < b.N; i++ {
		points, err := experiments.AblationKeyCache(o)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			b.ReportMetric(p.SecondUpMBps, fmt.Sprintf("up2_MBps_cache_%v", p.CacheEnabled))
		}
	}
}

// BenchmarkAblationThreads sweeps encryption worker counts.
func BenchmarkAblationThreads(b *testing.B) {
	o := benchOptions(b)
	for i := 0; i < b.N; i++ {
		points, err := experiments.AblationThreads(o, []int{1, 2, 4})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			b.ReportMetric(p.MBps, fmt.Sprintf("MBps_%s_%dw", p.Scheme, p.Workers))
		}
	}
}

// BenchmarkAblationStubSize sweeps the stub size.
func BenchmarkAblationStubSize(b *testing.B) {
	o := benchOptions(b)
	for i := 0; i < b.N; i++ {
		points, err := experiments.AblationStubSize(o, []int{32, 64, 128})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			b.ReportMetric(p.StorageOverheadPct, fmt.Sprintf("overhead_pct_stub%d", p.StubSize))
			b.ReportMetric(p.ActiveRekeySec, fmt.Sprintf("active_s_stub%d", p.StubSize))
		}
	}
}
