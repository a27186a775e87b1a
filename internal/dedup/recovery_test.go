package dedup

// Crash-recovery tests. A "crash" is simulated by abandoning a Store
// without Flush/Close and opening a fresh one over the same backend:
// everything the old store had only in memory (beyond what Commit made
// durable) is lost, exactly as kill -9 would lose it.

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/store"
	"repro/internal/store/storetest"
)

// verifyChunks asserts every fingerprint reads back its original bytes.
func verifyChunks(t *testing.T, s *Store, fps []fingerprint.Fingerprint, datas [][]byte) {
	t.Helper()
	for i, fp := range fps {
		got, err := s.Get(ctx, fp)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if !bytes.Equal(got, datas[i]) {
			t.Fatalf("chunk %d: wrong bytes after recovery", i)
		}
	}
}

// TestKillRecoveryFromWALOnly: committed state with no checkpoint at
// all must be rebuilt purely from the log — including sealed
// containers, duplicate refcounts, and derefs.
func TestKillRecoveryFromWALOnly(t *testing.T) {
	backend := store.NewMemory()
	s1, err := Open(ctx, backend, 4096)
	if err != nil {
		t.Fatal(err)
	}

	var fps []fingerprint.Fingerprint
	var datas [][]byte
	for i := 0; i < 20; i++ { // several sealed containers + an open tail
		data, fp := chunk(500+i, 1500)
		if _, err := s1.Put(ctx, fp, data); err != nil {
			t.Fatal(err)
		}
		fps = append(fps, fp)
		datas = append(datas, data)
	}
	// A duplicate and a deref, so refcounts and free accounting replay too.
	if dup, _ := s1.Put(ctx, fps[3], datas[3]); !dup {
		t.Fatal("duplicate not detected")
	}
	if _, err := s1.Deref(ctx, fps[7]); err != nil {
		t.Fatal(err)
	}
	if err := s1.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	want := s1.Stats()
	wantUnique := s1.UniqueChunks()

	// kill -9: s1 is abandoned with its open container only in memory.
	s2, err := Open(ctx, backend, 4096)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if got := s2.Stats(); got != want {
		t.Fatalf("stats after recovery = %+v, want %+v", got, want)
	}
	if got := s2.UniqueChunks(); got != wantUnique {
		t.Fatalf("unique chunks after recovery = %d, want %d", got, wantUnique)
	}
	if got := s2.Refs(fps[3]); got != 2 {
		t.Fatalf("refs after recovery = %d, want 2", got)
	}
	if s2.Has(fps[7]) {
		t.Fatal("dereffed chunk resurrected by recovery")
	}
	live := func(i int) bool { return i != 7 }
	for i := range fps {
		if !live(i) {
			continue
		}
		got, err := s2.Get(ctx, fps[i])
		if err != nil || !bytes.Equal(got, datas[i]) {
			t.Fatalf("chunk %d after recovery: %v", i, err)
		}
	}
	// The recovered store keeps working: new puts dedup against old state.
	if dup, err := s2.Put(ctx, fps[0], datas[0]); err != nil || !dup {
		t.Fatalf("recovered store lost dedup state: dup=%v err=%v", dup, err)
	}
}

// TestKillRecoveryCheckpointPlusTail: state = snapshot + WAL tail.
func TestKillRecoveryCheckpointPlusTail(t *testing.T) {
	backend := store.NewMemory()
	s1, err := Open(ctx, backend, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var fps []fingerprint.Fingerprint
	var datas [][]byte
	put := func(s *Store, seed int) {
		data, fp := chunk(seed, 1200)
		if _, err := s.Put(ctx, fp, data); err != nil {
			t.Fatal(err)
		}
		fps = append(fps, fp)
		datas = append(datas, data)
	}
	for i := 0; i < 8; i++ {
		put(s1, 700+i)
	}
	if err := s1.Flush(ctx); err != nil { // seals + checkpoints, truncating the WAL
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ { // tail lives only in post-checkpoint segments
		put(s1, 800+i)
	}
	if _, err := s1.Deref(ctx, fps[2]); err != nil {
		t.Fatal(err)
	}
	if err := s1.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	want := s1.Stats()

	s2, err := Open(ctx, backend, 4096)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if got := s2.Stats(); got != want {
		t.Fatalf("stats after recovery = %+v, want %+v", got, want)
	}
	for i := range fps {
		if i == 2 {
			continue
		}
		got, err := s2.Get(ctx, fps[i])
		if err != nil || !bytes.Equal(got, datas[i]) {
			t.Fatalf("chunk %d after recovery: %v", i, err)
		}
	}
}

// TestRecoveryAfterCheckpointTruncation is the regression test for WAL
// numbering across a checkpoint: a checkpoint can truncate every
// segment, and a store reopened afterwards must not reuse low sequence
// numbers for new segments — they would sort below the snapshot's
// replay position and be invisible to the NEXT recovery.
func TestRecoveryAfterCheckpointTruncation(t *testing.T) {
	backend := store.NewMemory()
	s1, err := Open(ctx, backend, 4096)
	if err != nil {
		t.Fatal(err)
	}
	dataA, fpA := chunk(1, 1000)
	if _, err := s1.Put(ctx, fpA, dataA); err != nil {
		t.Fatal(err)
	}
	if err := s1.Flush(ctx); err != nil { // checkpoint empties the WAL namespace
		t.Fatal(err)
	}

	// Crash, recover, write more — the new segment must land above the
	// checkpoint position even though the namespace was empty at Open.
	s2, err := Open(ctx, backend, 4096)
	if err != nil {
		t.Fatal(err)
	}
	dataB, fpB := chunk(2, 1000)
	if _, err := s2.Put(ctx, fpB, dataB); err != nil {
		t.Fatal(err)
	}
	if err := s2.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// Crash again: the second recovery must see B.
	s3, err := Open(ctx, backend, 4096)
	if err != nil {
		t.Fatal(err)
	}
	verifyChunks(t, s3, []fingerprint.Fingerprint{fpA, fpB}, [][]byte{dataA, dataB})
}

// TestKillRecoveryAfterCompaction: a committed compaction (MOVE/DROP
// records, old blob deleted) must replay to the exact post-compaction
// state.
func TestKillRecoveryAfterCompaction(t *testing.T) {
	backend := store.NewMemory()
	s1, err := Open(ctx, backend, 8192)
	if err != nil {
		t.Fatal(err)
	}
	var fps []fingerprint.Fingerprint
	var datas [][]byte
	for i := 0; i < 32; i++ {
		data, fp := chunk(900+i, 1500)
		if _, err := s1.Put(ctx, fp, data); err != nil {
			t.Fatal(err)
		}
		fps = append(fps, fp)
		datas = append(datas, data)
	}
	if err := s1.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	for i, fp := range fps { // 75% dead space forces compaction
		if i%4 != 0 {
			if _, err := s1.Deref(ctx, fp); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s1.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if s1.Stats().CompactedContainers == 0 {
		t.Fatal("setup failed to trigger compaction")
	}
	want := s1.Stats()

	s2, err := Open(ctx, backend, 8192)
	if err != nil {
		t.Fatalf("recovery after compaction: %v", err)
	}
	if got := s2.Stats(); got != want {
		t.Fatalf("stats after recovery = %+v, want %+v", got, want)
	}
	for i := range fps {
		if i%4 != 0 {
			continue
		}
		got, err := s2.Get(ctx, fps[i])
		if err != nil || !bytes.Equal(got, datas[i]) {
			t.Fatalf("survivor %d after recovery: %v", i, err)
		}
	}
}

// TestTornFinalSegmentEveryByteBoundary cuts the final WAL segment at
// every byte boundary before recovery. The segment holds two commit
// batches; at any cut short of a batch's end that batch is discarded
// whole, and recovery must land on exactly the committed state before
// it.
func TestTornFinalSegmentEveryByteBoundary(t *testing.T) {
	backend := store.NewMemory()
	s1, err := Open(ctx, backend, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var fps []fingerprint.Fingerprint
	var datas [][]byte
	var batchEnds []int
	const last = "w0000000000000000"
	for batch := 0; batch < 2; batch++ { // one WAL batch per commit
		for i := 0; i < 3; i++ {
			data, fp := chunk(1100+batch*10+i, 300)
			if _, err := s1.Put(ctx, fp, data); err != nil {
				t.Fatal(err)
			}
			fps = append(fps, fp)
			datas = append(datas, data)
		}
		if err := s1.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		seg, err := backend.Get(ctx, store.NSWAL, last)
		if err != nil {
			t.Fatal(err)
		}
		batchEnds = append(batchEnds, len(seg))
	}
	if segs, err := backend.List(ctx, store.NSWAL); err != nil || len(segs) != 1 {
		t.Fatalf("expected one WAL segment, got %v, %v", segs, err)
	}
	full, err := backend.Get(ctx, store.NSWAL, last)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(full); cut++ {
		torn := storetest.Copy(backend, store.NSContainers, store.NSMeta, store.NSWAL)
		if err := torn.Put(ctx, store.NSWAL, last, full[:cut]); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(ctx, torn, 1<<20)
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		wantChunks := 0
		for _, end := range batchEnds {
			if cut >= end {
				wantChunks += 3
			}
		}
		if got := s2.UniqueChunks(); got != wantChunks {
			t.Fatalf("cut %d: recovered %d chunks, want %d", cut, got, wantChunks)
		}
		verifyChunks(t, s2, fps[:wantChunks], datas[:wantChunks])
	}
}

// TestScrubDetectsCorruptContainer: recovery must refuse a backend
// whose sealed container no longer matches the index.
func TestScrubDetectsCorruptContainer(t *testing.T) {
	backend := store.NewMemory()
	s1, err := Open(ctx, backend, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		data, fp := chunk(1200+i, 1500)
		if _, err := s1.Put(ctx, fp, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := s1.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	names, err := backend.List(ctx, store.NSContainers)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("no sealed containers")
	}
	blob, err := backend.Get(ctx, store.NSContainers, names[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.Put(ctx, store.NSContainers, names[0], blob[:len(blob)-5]); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(ctx, backend, 4096); err == nil {
		t.Fatal("recovery accepted a corrupt container")
	}
}

// TestOrphanSweep: a container blob the recovered state does not own
// (sealed but never committed, or compacted but not yet deleted) is
// removed during recovery; a foreign blob name is an error.
func TestOrphanSweep(t *testing.T) {
	backend := store.NewMemory()
	s1, err := Open(ctx, backend, 4096)
	if err != nil {
		t.Fatal(err)
	}
	data, fp := chunk(1, 1000)
	if _, err := s1.Put(ctx, fp, data); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := backend.Put(ctx, store.NSContainers, containerName(99), []byte("stale")); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(ctx, backend, 4096)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if ok, _ := backend.Has(ctx, store.NSContainers, containerName(99)); ok {
		t.Fatal("orphan container survived recovery")
	}
	verifyChunks(t, s2, []fingerprint.Fingerprint{fp}, [][]byte{data})

	if err := backend.Put(ctx, store.NSContainers, "not-a-container", []byte("x")); err != nil {
		t.Fatal(err)
	}
	_, err = Open(ctx, backend, 4096)
	if err == nil || !strings.Contains(err.Error(), "foreign blob") {
		t.Fatalf("recovery with a foreign blob = %v, want error", err)
	}
}

// TestUncommittedWorkIsLostCleanly: puts that were never committed
// vanish on recovery — no error, no partial state — and the store
// remains fully usable.
func TestUncommittedWorkIsLostCleanly(t *testing.T) {
	backend := store.NewMemory()
	s1, err := Open(ctx, backend, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	dataA, fpA := chunk(1, 500)
	if _, err := s1.Put(ctx, fpA, dataA); err != nil {
		t.Fatal(err)
	}
	if err := s1.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	dataB, fpB := chunk(2, 500)
	if _, err := s1.Put(ctx, fpB, dataB); err != nil {
		t.Fatal(err)
	}
	// No Commit: B rides only in the pending buffer.

	s2, err := Open(ctx, backend, 1<<20)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	verifyChunks(t, s2, []fingerprint.Fingerprint{fpA}, [][]byte{dataA})
	if s2.Has(fpB) {
		t.Fatal("uncommitted chunk survived the crash")
	}
	if _, err := s2.Put(ctx, fpB, dataB); err != nil {
		t.Fatal(err)
	}
	verifyChunks(t, s2, []fingerprint.Fingerprint{fpB}, [][]byte{dataB})
}

// TestRecoveryIsIdempotent: recovering twice in a row (crash during
// idle) must be a no-op the second time.
func TestRecoveryIsIdempotent(t *testing.T) {
	backend := store.NewMemory()
	s1, err := Open(ctx, backend, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var fps []fingerprint.Fingerprint
	var datas [][]byte
	for i := 0; i < 12; i++ {
		data, fp := chunk(1400+i, 900)
		if _, err := s1.Put(ctx, fp, data); err != nil {
			t.Fatal(err)
		}
		fps = append(fps, fp)
		datas = append(datas, data)
	}
	if err := s1.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	want := s1.Stats()

	for gen := 0; gen < 3; gen++ {
		s, err := Open(ctx, backend, 4096)
		if err != nil {
			t.Fatalf("generation %d: %v", gen, err)
		}
		if got := s.Stats(); got != want {
			t.Fatalf("generation %d: stats = %+v, want %+v", gen, got, want)
		}
		verifyChunks(t, s, fps, datas)
	}
}
