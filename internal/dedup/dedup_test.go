package dedup

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/store"
	"repro/internal/store/storetest"
)

var ctx = context.Background()

func newStore(t testing.TB, containerSize int) (*Store, *store.Memory) {
	t.Helper()
	backend := store.NewMemory()
	s, err := Open(ctx, backend, containerSize)
	if err != nil {
		t.Fatal(err)
	}
	return s, backend
}

func chunk(seed int, size int) ([]byte, fingerprint.Fingerprint) {
	rng := rand.New(rand.NewSource(int64(seed)))
	data := make([]byte, size)
	rng.Read(data)
	return data, fingerprint.New(data)
}

func TestPutGetRoundTrip(t *testing.T) {
	s, _ := newStore(t, 0)
	data, fp := chunk(1, 4096)
	dup, err := s.Put(ctx, fp, data)
	if err != nil || dup {
		t.Fatalf("Put = %v, %v", dup, err)
	}
	got, err := s.Get(ctx, fp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("Get returned wrong bytes")
	}
}

func TestDuplicateDetection(t *testing.T) {
	s, _ := newStore(t, 0)
	data, fp := chunk(2, 1024)
	if dup, _ := s.Put(ctx, fp, data); dup {
		t.Fatal("first put reported duplicate")
	}
	if dup, _ := s.Put(ctx, fp, data); !dup {
		t.Fatal("second put not reported duplicate")
	}
	stats := s.Stats()
	if stats.TotalPuts != 2 || stats.DedupedPuts != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.PhysicalBytes != 1024 || stats.LogicalBytes != 2048 {
		t.Fatalf("byte accounting = %+v", stats)
	}
	if got := stats.SavingsRatio(); got != 0.5 {
		t.Fatalf("SavingsRatio = %v, want 0.5", got)
	}
}

func TestGetUnknown(t *testing.T) {
	s, _ := newStore(t, 0)
	_, fp := chunk(3, 64)
	if _, err := s.Get(ctx, fp); !errors.Is(err, ErrUnknownChunk) {
		t.Fatalf("error = %v, want ErrUnknownChunk", err)
	}
}

func TestHas(t *testing.T) {
	s, _ := newStore(t, 0)
	data, fp := chunk(4, 64)
	if s.Has(fp) {
		t.Fatal("Has before put")
	}
	s.Put(ctx, fp, data)
	if !s.Has(fp) {
		t.Fatal("Has after put")
	}
}

func TestContainerSealing(t *testing.T) {
	// Small containers force sealing every few chunks.
	s, backend := newStore(t, 4096)
	var fps []fingerprint.Fingerprint
	var datas [][]byte
	for i := 0; i < 20; i++ {
		data, fp := chunk(100+i, 1500)
		if _, err := s.Put(ctx, fp, data); err != nil {
			t.Fatal(err)
		}
		fps = append(fps, fp)
		datas = append(datas, data)
	}
	// Several sealed containers should exist before any flush.
	names, err := backend.List(ctx, store.NSContainers)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 5 {
		t.Fatalf("expected several sealed containers, got %d", len(names))
	}
	// Every chunk remains readable (sealed or in the open container).
	for i, fp := range fps {
		got, err := s.Get(ctx, fp)
		if err != nil {
			t.Fatalf("Get chunk %d: %v", i, err)
		}
		if !bytes.Equal(got, datas[i]) {
			t.Fatalf("chunk %d corrupted", i)
		}
	}
}

func TestOversizedChunk(t *testing.T) {
	s, _ := newStore(t, 4096)
	data, fp := chunk(5, 10000) // larger than the container size
	if _, err := s.Put(ctx, fp, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(ctx, fp)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("oversized chunk round trip failed: %v", err)
	}
}

func TestEmptyChunkRejected(t *testing.T) {
	s, _ := newStore(t, 0)
	if _, err := s.Put(ctx, fingerprint.New(nil), nil); err == nil {
		t.Fatal("empty chunk expected error")
	}
}

func TestFlushPersistsIndex(t *testing.T) {
	backend := store.NewMemory()
	s1, err := Open(ctx, backend, 4096)
	if err != nil {
		t.Fatal(err)
	}
	data, fp := chunk(6, 2000)
	s1.Put(ctx, fp, data)
	if err := s1.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// Reopen over the same backend: index and data must survive.
	s2, err := Open(ctx, backend, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Has(fp) {
		t.Fatal("index lost across reopen")
	}
	got, err := s2.Get(ctx, fp)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("data lost across reopen: %v", err)
	}
	// Dedup continues to work after reopen.
	if dup, _ := s2.Put(ctx, fp, data); !dup {
		t.Fatal("reopened store lost dedup state")
	}
	stats := s2.Stats()
	if stats.PhysicalBytes != 2000 {
		t.Fatalf("physical bytes after reopen = %d", stats.PhysicalBytes)
	}
}

func TestReopenAllocatesFreshContainerIDs(t *testing.T) {
	backend := store.NewMemory()
	s1, _ := Open(ctx, backend, 1024)
	for i := 0; i < 5; i++ {
		data, fp := chunk(200+i, 800)
		s1.Put(ctx, fp, data)
	}
	s1.Close(ctx)

	s2, _ := Open(ctx, backend, 1024)
	// New data must not overwrite old containers.
	var newFPs []fingerprint.Fingerprint
	var newData [][]byte
	for i := 0; i < 5; i++ {
		data, fp := chunk(300+i, 800)
		s2.Put(ctx, fp, data)
		newFPs = append(newFPs, fp)
		newData = append(newData, data)
	}
	s2.Close(ctx)

	s3, _ := Open(ctx, backend, 1024)
	for i := 0; i < 5; i++ {
		_, oldFP := chunk(200+i, 800)
		if got, err := s3.Get(ctx, oldFP); err != nil || len(got) != 800 {
			t.Fatalf("old chunk %d unreadable after two generations: %v", i, err)
		}
	}
	for i, fp := range newFPs {
		got, err := s3.Get(ctx, fp)
		if err != nil || !bytes.Equal(got, newData[i]) {
			t.Fatalf("new chunk %d unreadable: %v", i, err)
		}
	}
}

func TestSavingsRatioEmpty(t *testing.T) {
	var s Stats
	if s.SavingsRatio() != 0 {
		t.Fatal("empty stats should have zero savings")
	}
}

func TestConcurrentPuts(t *testing.T) {
	s, _ := newStore(t, 64*1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				// Half the chunks collide across goroutines.
				data := []byte(fmt.Sprintf("chunk-%d-%d", g%2, i))
				fp := fingerprint.New(data)
				if _, err := s.Put(ctx, fp, data); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	stats := s.Stats()
	if stats.TotalPuts != 800 {
		t.Fatalf("TotalPuts = %d, want 800", stats.TotalPuts)
	}
	// 2 distinct goroutine classes x 100 chunks = 200 unique.
	if unique := stats.TotalPuts - stats.DedupedPuts; unique != 200 {
		t.Fatalf("unique puts = %d, want 200", unique)
	}
}

func BenchmarkPutUnique8KB(b *testing.B) {
	s, _ := newStore(b, DefaultContainerSize)
	data := make([]byte, 8192)
	b.SetBytes(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binaryFill(data, i)
		fp := fingerprint.New(data)
		if _, err := s.Put(ctx, fp, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPutDuplicate8KB(b *testing.B) {
	s, _ := newStore(b, DefaultContainerSize)
	data := make([]byte, 8192)
	fp := fingerprint.New(data)
	s.Put(ctx, fp, data)
	b.SetBytes(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Put(ctx, fp, data); err != nil {
			b.Fatal(err)
		}
	}
}

func binaryFill(data []byte, v int) {
	for i := 0; i < 8 && i < len(data); i++ {
		data[i] = byte(v >> (8 * i))
	}
}

// TestConcurrentMixedOpsWithCompaction churns the store from every
// direction at once — readers verifying stable chunks, writers forcing
// container seals, derefs forcing compaction, stats polling — under a
// tiny container size so the Get-vs-compaction retry path actually runs.
func TestConcurrentMixedOpsWithCompaction(t *testing.T) {
	s, _ := newStore(t, 4096)

	// Stable chunks keep their single reference throughout; their bytes
	// must read back intact no matter how often compaction moves them.
	const stable = 64
	stableData := make([][]byte, stable)
	stableFPs := make([]fingerprint.Fingerprint, stable)
	for i := range stableData {
		stableData[i], stableFPs[i] = chunk(1000+i, 512)
		if _, err := s.Put(ctx, stableFPs[i], stableData[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Victims are dereffed to zero to create dead space in sealed
	// containers.
	const victims = 128
	victimFPs := make([]fingerprint.Fingerprint, victims)
	for i := range victimFPs {
		var data []byte
		data, victimFPs[i] = chunk(2000+i, 512)
		if _, err := s.Put(ctx, victimFPs[i], data); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				j := (g*7 + i) % stable
				got, err := s.Get(ctx, stableFPs[j])
				if err != nil {
					t.Errorf("Get stable %d: %v", j, err)
					return
				}
				if !bytes.Equal(got, stableData[j]) {
					t.Errorf("Get stable %d: wrong bytes", j)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				data, fp := chunk(10000+g*1000+i, 512)
				if _, err := s.Put(ctx, fp, data); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, fp := range victimFPs {
			if _, err := s.Deref(ctx, fp); err != nil {
				t.Errorf("Deref: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			s.Stats()
			s.Has(stableFPs[i%stable])
		}
	}()
	wg.Wait()

	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	for j := range stableFPs {
		got, err := s.Get(ctx, stableFPs[j])
		if err != nil {
			t.Fatalf("post-churn Get stable %d: %v", j, err)
		}
		if !bytes.Equal(got, stableData[j]) {
			t.Fatalf("post-churn Get stable %d: wrong bytes", j)
		}
	}
}

// TestSealedContainerFetchedOnce: concurrent Gets of chunks in one
// sealed container trigger exactly one backend read — followers either
// join the in-flight fetch or hit the cache.
func TestSealedContainerFetchedOnce(t *testing.T) {
	faults := storetest.New()
	fetches := faults.Add(&storetest.Rule{Ops: storetest.Get, NS: []string{store.NSContainers}, Name: containerName(0)})
	s, err := Open(ctx, faults.View("server"), 8192)
	if err != nil {
		t.Fatal(err)
	}

	const n = 8
	fps := make([]fingerprint.Fingerprint, n)
	datas := make([][]byte, n)
	for i := range fps {
		datas[i], fps[i] = chunk(100+i, 512)
		if _, err := s.Put(ctx, fps[i], datas[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(ctx); err != nil { // seals container 0
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, err := s.Get(ctx, fps[g%n])
			if err != nil || !bytes.Equal(got, datas[g%n]) {
				t.Errorf("Get: %v", err)
			}
		}(g)
	}
	wg.Wait()

	if count := fetches.Hits(); count != 1 {
		t.Fatalf("container fetched %d times, want 1", count)
	}
}

// TestFaultReplayPutIsByteIdempotent pins the invariant the client's
// upload pipeline relies on when it re-sends a batch after a connection
// fault: replaying a Put stores nothing new — same bytes on Get,
// PhysicalBytes unchanged, dup reported — and only the refcount moves,
// so a replay can over-retain but never corrupt or free early.
func TestFaultReplayPutIsByteIdempotent(t *testing.T) {
	s, _ := newStore(t, 0)
	data, fp := chunk(9, 4096)
	if dup, err := s.Put(ctx, fp, data); err != nil || dup {
		t.Fatalf("first Put = %v, %v", dup, err)
	}
	phys := s.Stats().PhysicalBytes

	// The "uncertain delivery" replay: same fingerprint, same bytes.
	for i := 0; i < 3; i++ {
		dup, err := s.Put(ctx, fp, data)
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		if !dup {
			t.Fatalf("replay %d not reported as duplicate", i)
		}
	}
	if got := s.Stats().PhysicalBytes; got != phys {
		t.Fatalf("PhysicalBytes = %d after replays, want %d (nothing rewritten)", got, phys)
	}
	got, err := s.Get(ctx, fp)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get after replays: %v", err)
	}

	// The inflated refcount over-retains: the original reference plus
	// three replays means three Derefs still leave the chunk live.
	for i := 0; i < 3; i++ {
		left, err := s.Deref(ctx, fp)
		if err != nil || left == 0 {
			t.Fatalf("Deref %d left %d refs, %v; chunk freed too early", i, left, err)
		}
	}
	if _, err := s.Get(ctx, fp); err != nil {
		t.Fatalf("chunk unreadable while still referenced: %v", err)
	}
	left, err := s.Deref(ctx, fp)
	if err != nil || left != 0 {
		t.Fatalf("final Deref left %d refs, %v, want 0", left, err)
	}
}
