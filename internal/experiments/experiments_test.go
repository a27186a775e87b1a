package experiments

import (
	"sync"
	"testing"

	"repro/internal/oprf"
)

// Tiny scale so the full figure suite smoke-tests in seconds. These
// tests assert structure and shape, not absolute performance.
var (
	keyOnce sync.Once
	kmKey   *oprf.ServerKey
)

func tinyOptions(t *testing.T) Options {
	t.Helper()
	keyOnce.Do(func() {
		k, err := oprf.GenerateServerKey(oprf.DefaultBits, nil)
		if err != nil {
			t.Fatalf("oprf key: %v", err)
		}
		kmKey = k
	})
	return Options{
		FileBytes:   1 << 20, // 1 MB stands in for the 2 GB file
		DataServers: 2,
		KMKey:       kmKey,
		Seed:        7,
	}
}

func TestFig5aShape(t *testing.T) {
	points, err := Fig5aKeyGenVsChunkSize(tinyOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(PaperChunkSizesKB) {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.MBps <= 0 || p.Chunks <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
	}
	// Paper shape: speed increases with chunk size (fewer chunks to
	// process). Compare the extremes.
	if points[len(points)-1].MBps <= points[0].MBps {
		t.Errorf("keygen speed did not increase with chunk size: %v -> %v",
			points[0].MBps, points[len(points)-1].MBps)
	}
}

func TestFig5bShape(t *testing.T) {
	points, err := Fig5bKeyGenVsBatchSize(tinyOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(PaperBatchSizes) {
		t.Fatalf("points = %d", len(points))
	}
	// Paper shape: batching beats one round trip per chunk. What it buys
	// is counted, not timed: each point sends one key-manager request per
	// batch, so batch 256 makes 1/256 as many per chunk as batch 1.
	for _, p := range points {
		checkBatching(t, p.BatchSize, p.Chunks, p.Requests)
	}
}

// checkBatching asserts one key-manager request per batch of at most
// batch chunks.
func checkBatching(t *testing.T, batch, chunks, requests int) {
	t.Helper()
	if chunks == 0 {
		t.Errorf("batch %d: no chunks", batch)
	}
	if want := (chunks + batch - 1) / batch; requests != want {
		t.Errorf("batch %d: %d chunks took %d key-manager requests, want %d", batch, chunks, requests, want)
	}
}

func TestFig6Shape(t *testing.T) {
	o := tinyOptions(t)
	o.FileBytes = 4 << 20
	points, err := Fig6EncryptionSpeed(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2*len(PaperChunkSizesKB) {
		t.Fatalf("points = %d", len(points))
	}
	// Every (scheme, chunk size) pair is measured exactly once. The
	// paper's shape — basic faster than enhanced, which pays an extra
	// AES pass — is a wall-clock ordering of two ~10 ms runs; this pure
	// CPU experiment produces no counter to assert it on, so it is left
	// to EXPERIMENTS.md and reed-perf's core.encrypt_s_per_GB.
	seen := make(map[EncryptionPoint]bool)
	for _, p := range points {
		if p.MBps <= 0 {
			t.Errorf("degenerate point %+v", p)
		}
		seen[EncryptionPoint{ChunkKB: p.ChunkKB, Scheme: p.Scheme}] = true
	}
	for _, kb := range PaperChunkSizesKB {
		for _, scheme := range []string{"basic", "enhanced"} {
			if !seen[EncryptionPoint{ChunkKB: kb, Scheme: scheme}] {
				t.Errorf("no point for %s at %d KB", scheme, kb)
			}
		}
	}
}

func TestFig7Shape(t *testing.T) {
	points, err := Fig7UploadDownload(tinyOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.FirstUpMBps <= 0 || p.SecondUpMBps <= 0 || p.DownloadMBps <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
		// Paper shape: the second upload (cached keys + dedup) is much
		// faster than the first (keygen-bound).
		if p.SecondUpMBps <= p.FirstUpMBps {
			t.Errorf("%dKB/%s: second upload (%.1f) not faster than first (%.1f)",
				p.ChunkKB, p.Scheme, p.SecondUpMBps, p.FirstUpMBps)
		}
	}
}

func TestFig7cShape(t *testing.T) {
	points, err := Fig7cMultiClient(tinyOptions(t), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.FirstUpMBps <= 0 || p.SecondUpMBps <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
	}
	// The paper's aggregate-scaling shape needs per-client NICs and a
	// saturating key manager, both of which only emerge at full scale
	// (everything here shares one process's cores). What keeps the
	// second round from collapsing as clients are added is counted: every
	// re-upload is a whole-file clone and asks the key manager for
	// nothing.
	for _, p := range points {
		if p.SecondUpHits != p.Clients || p.SecondUpEvaluations != 0 {
			t.Errorf("%d clients: %d second-round uploads were clones, %d key-manager evaluations; want %d and 0",
				p.Clients, p.SecondUpHits, p.SecondUpEvaluations, p.Clients)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	o := tinyOptions(t)
	points, err := Fig8aRekeyVsUsers(o, []int{20, 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.LazySec <= 0 || p.ActiveSec <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
		// At this tiny scale the stub file is a few KB, so lazy and
		// active should be close; the lazy < active gap is a
		// full-scale property checked by the benchmark harness.
		if p.ActiveSec < p.LazySec/2 {
			t.Errorf("users=%d: active (%.3fs) implausibly below lazy (%.3fs)",
				p.X, p.ActiveSec, p.LazySec)
		}
	}
	// Delay grows with the number of users (policy encryption cost).
	if points[1].LazySec <= points[0].LazySec {
		t.Errorf("rekey delay did not grow with users: %v -> %v",
			points[0].LazySec, points[1].LazySec)
	}
}

func TestFig8bAnd8cRun(t *testing.T) {
	o := tinyOptions(t)
	b, err := Fig8bRekeyVsRatio(o, 30, []int{20, 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 2 {
		t.Fatalf("8b points = %d", len(b))
	}
	c, err := Fig8cRekeyVsFileSize(o, 30, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != 2 {
		t.Fatalf("8c points = %d", len(c))
	}
}

func TestFig9Shape(t *testing.T) {
	to := TraceOptions{Users: 3, Days: 10, BytesPerUserDay: 1 << 20, Seed: 3}
	days, err := Fig9StorageOverhead(tinyOptions(t), to)
	if err != nil {
		t.Fatal(err)
	}
	if len(days) != 10 {
		t.Fatalf("days = %d", len(days))
	}
	last := days[len(days)-1]
	// Paper shape: high cumulative savings (98.6% in the full trace;
	// smaller scaled runs still save the overwhelming majority).
	if s := last.Saving(); s < 0.8 {
		t.Errorf("cumulative saving = %.3f, want >= 0.8", s)
	}
	// Stub data grows monotonically and is never deduplicated.
	for i := 1; i < len(days); i++ {
		if days[i].StubBytes <= days[i-1].StubBytes {
			t.Errorf("stub bytes not strictly growing at day %d", i+1)
		}
		if days[i].LogicalBytes <= days[i-1].LogicalBytes {
			t.Errorf("logical bytes not growing at day %d", i+1)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	to := TraceOptions{Users: 2, Days: 3, BytesPerUserDay: 512 << 10, Seed: 4}
	days, err := Fig10TraceDriven(tinyOptions(t), to)
	if err != nil {
		t.Fatal(err)
	}
	if len(days) != 3 {
		t.Fatalf("days = %d", len(days))
	}
	for _, d := range days {
		if d.UploadMBps <= 0 || d.DownloadMBps <= 0 {
			t.Fatalf("degenerate day %+v", d)
		}
	}
	// Paper shape: day 1 is keygen-bound; later days ride the key
	// cache and dedup.
	if days[2].UploadMBps <= days[0].UploadMBps {
		t.Errorf("upload speed did not improve after day 1: %v -> %v",
			days[0].UploadMBps, days[2].UploadMBps)
	}
}

func TestAblations(t *testing.T) {
	o := tinyOptions(t)

	batching, err := AblationBatching(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(batching) != 2 || batching[0].Batched || !batching[1].Batched {
		t.Fatalf("batching ablation points wrong: %+v", batching)
	}
	for _, p := range batching {
		checkBatching(t, p.BatchSize, p.Chunks, p.Requests)
	}

	cache, err := AblationKeyCache(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(cache) != 2 {
		t.Fatalf("cache points = %d", len(cache))
	}
	// What the cache buys is counted, not timed: with it the second
	// upload asks the key manager for nothing, without it for every
	// chunk again. (Which of the two is faster on the wall clock is
	// reed-perf's question; on a loaded two-core box it flipped.)
	for _, p := range cache {
		if p.SecondUpMBps <= 0 {
			t.Errorf("cache ablation: degenerate point %+v", p)
		}
		if p.CacheEnabled != (p.SecondUpEvaluations == 0) {
			t.Errorf("cache ablation: cache enabled = %v but the second upload cost %d key-manager evaluations",
				p.CacheEnabled, p.SecondUpEvaluations)
		}
	}

	threads, err := AblationThreads(o, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(threads) != 4 {
		t.Fatalf("threads points = %d", len(threads))
	}

	stubs, err := AblationStubSize(o, []int{32, 128})
	if err != nil {
		t.Fatal(err)
	}
	if len(stubs) != 2 {
		t.Fatalf("stub points = %d", len(stubs))
	}
	if stubs[1].StorageOverheadPct <= stubs[0].StorageOverheadPct {
		t.Errorf("stub overhead did not grow with stub size: %+v", stubs)
	}
}
