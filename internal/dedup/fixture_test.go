package dedup

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/store"
	"repro/internal/wal"
)

var update = flag.Bool("update", false, "rewrite the version-4 checkpoint, in-place WAL and container fixtures in testdata/ (an at-rest format break)")

// The fixture store packs 24-byte chunks into 64-byte containers, so
// two chunks fill a container and a commit checkpoints after 256
// journaled bytes.
const (
	fixtureContainerSize = 64
	fixtureChunkSize     = 24
)

// fixtureBlobs maps each committed file to the backend blob it is a
// byte copy of: a version-3 checkpoint taken with a non-empty open
// container, the one WAL segment journaled after it, and the only
// sealed container alive at that point. Stores stopped writing this
// format at snapshot version 4; the files stay to prove such a store
// still opens.
var fixtureBlobs = []struct{ file, ns, name string }{
	{"checkpoint_v3.bin", store.NSMeta, "dedup-index"},
	{"wal_tail.bin", store.NSWAL, "w0000000000000001"},
	{"container_1.bin", store.NSContainers, "c0000000000000001"},
}

// fixtureBlobsV4 is the same history at snapshot version 4: the
// checkpoint, the metadata-only WAL tail after it as a sealed segment
// of the log's older layout, the sealed container (byte-identical to
// the version-3 one) and the open container's blob, which now holds the
// open container's bytes. Stores stopped writing sealed segments when
// the log began to append in place; the files stay to prove such a
// store still opens.
var fixtureBlobsV4 = []struct{ file, ns, name string }{
	{"checkpoint_v4.bin", store.NSMeta, "dedup-index"},
	{"wal_tail_v4.bin", store.NSWAL, "w0000000000000001"},
	{"container_1.bin", store.NSContainers, "c0000000000000001"},
	{"open_container_2.bin", store.NSContainers, "c0000000000000002"},
}

// fixtureBlobsInPlace is the same history in the current format: the
// version-4 blobs, with the WAL tail as one batch of an in-place
// segment.
var fixtureBlobsInPlace = []struct{ file, ns, name string }{
	fixtureBlobsV4[0],
	{"wal_tail_inplace.bin", store.NSWAL, "w0000000000000001"},
	fixtureBlobsV4[2],
	fixtureBlobsV4[3],
}

func fixtureChunk(letter byte) ([]byte, fingerprint.Fingerprint) {
	data := bytes.Repeat([]byte{letter}, fixtureChunkSize)
	return data, fingerprint.New(data)
}

// runFixtureScript drives a fresh store through the history the
// fixtures record and abandons it, as kill -9 would.
//
// Checkpointed part: a, b fill container 0, which c seals; c, d sit in
// the open container 1; a second put of c (REF) takes the commit across
// the checkpoint threshold. (The version-3 history had no REF here: its
// PUT records carried the chunk bytes and crossed it without one.)
// Tail: e seals container 1 and opens container 2 (SEAL, PUT); a second
// put of a is a duplicate (REF); two derefs free a (DEREF ×2), which
// leaves container 0 half dead, so compaction moves b into container 2
// and drops container 0 (MOVE, DROP) and commits that segment itself.
func runFixtureScript(t *testing.T) store.Backend {
	t.Helper()
	s, backend := newStore(t, fixtureContainerSize)
	put := func(letter byte, wantDup bool) {
		t.Helper()
		data, fp := fixtureChunk(letter)
		if dup, err := s.Put(ctx, fp, data); err != nil || dup != wantDup {
			t.Fatalf("Put %c = %v, %v; want dup %v", letter, dup, err, wantDup)
		}
	}
	for _, letter := range []byte("abcd") {
		put(letter, false)
	}
	put('c', true)
	if err := s.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	put('e', false)
	put('a', true)
	_, a := fixtureChunk('a')
	for _, want := range []uint32{1, 0} {
		if left, err := s.Deref(ctx, a); err != nil || left != want {
			t.Fatalf("Deref a = %d, %v; want %d", left, err, want)
		}
	}
	return backend
}

// TestFixturesKnownAnswer: the scripted history must leave exactly the
// committed bytes of the current format in the backend, and nothing
// else — so
// neither the checkpoint encoding, a record encoding, the packfile
// layout nor the points at which the store writes can move unnoticed.
func TestFixturesKnownAnswer(t *testing.T) {
	backend := runFixtureScript(t)
	want := make(map[string][]string)
	for _, fx := range fixtureBlobsInPlace {
		want[fx.ns] = append(want[fx.ns], fx.name)
	}
	for ns, wantNames := range want {
		names, err := backend.List(ctx, ns)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(names, wantNames) {
			t.Fatalf("namespace %s holds %v, want only %v", ns, names, wantNames)
		}
	}
	for _, fx := range fixtureBlobsInPlace {
		got, err := backend.Get(ctx, fx.ns, fx.name)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", fx.file)
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: scripted state differs from the committed fixture", fx.file)
		}
	}
}

// TestFixturesKeepOpening reads only the committed bytes: the tail must
// hold every record kind, and a store opened over the three blobs must
// recover the scripted end state.
func TestFixturesKeepOpening(t *testing.T) {
	backend := store.NewMemory()
	for _, fx := range fixtureBlobs {
		blob, err := os.ReadFile(filepath.Join("testdata", fx.file))
		if err != nil {
			t.Fatal(err)
		}
		if err := backend.Put(ctx, fx.ns, fx.name, blob); err != nil {
			t.Fatal(err)
		}
		if fx.ns != store.NSWAL {
			continue
		}
		recs, _, err := wal.DecodeSegment(blob)
		if err != nil {
			t.Fatal(err)
		}
		var kinds []byte
		for _, rec := range recs {
			kinds = append(kinds, rec[0])
		}
		want := []byte{recSeal, recPut, recRef, recDeref, recDeref, recMove, recDrop}
		if !bytes.Equal(kinds, want) {
			t.Fatalf("tail record kinds = %v, want %v", kinds, want)
		}
	}

	s, err := Open(ctx, backend, fixtureContainerSize)
	if err != nil {
		t.Fatal(err)
	}
	_, a := fixtureChunk('a')
	if s.Has(a) {
		t.Error("freed chunk a is back")
	}
	for _, letter := range []byte("bcde") {
		data, fp := fixtureChunk(letter)
		got, err := s.Get(ctx, fp)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("Get %c = %q, %v", letter, got, err)
		}
		if refs := s.Refs(fp); refs != 1 {
			t.Errorf("Refs %c = %d, want 1", letter, refs)
		}
	}
	wantStats := Stats{
		TotalPuts: 6, DedupedPuts: 1,
		LogicalBytes: 6 * fixtureChunkSize, PhysicalBytes: 4 * fixtureChunkSize,
		FreedChunks: 1, FreedBytes: fixtureChunkSize, CompactedContainers: 1,
	}
	if got := s.Stats(); got != wantStats {
		t.Errorf("Stats = %+v, want %+v", got, wantStats)
	}
	// Sealed container 1 (c, d) plus the open container 2 (e, b).
	if n := s.ContainerCount(); n != 2 {
		t.Errorf("ContainerCount = %d, want 2", n)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestFixturesV4KeepOpening opens the committed version-4 blobs, with
// the WAL tail in either segment layout: the tail must hold every
// record kind, none carrying chunk bytes, and the store must recover
// the scripted end state with the open container's chunks read from
// its blob.
func TestFixturesV4KeepOpening(t *testing.T) {
	for name, blobs := range map[string][]struct{ file, ns, name string }{
		"sealed segment":   fixtureBlobsV4,
		"in-place segment": fixtureBlobsInPlace,
	} {
		t.Run(name, func(t *testing.T) { checkV4Fixtures(t, blobs) })
	}
}

func checkV4Fixtures(t *testing.T, blobs []struct{ file, ns, name string }) {
	backend := store.NewMemory()
	for _, fx := range blobs {
		blob, err := os.ReadFile(filepath.Join("testdata", fx.file))
		if err != nil {
			t.Fatal(err)
		}
		if err := backend.Put(ctx, fx.ns, fx.name, blob); err != nil {
			t.Fatal(err)
		}
		if fx.ns != store.NSWAL {
			continue
		}
		recs, _, err := wal.DecodeSegment(blob)
		if err != nil {
			t.Fatal(err)
		}
		var kinds []byte
		for _, rec := range recs {
			kinds = append(kinds, rec[0])
			if len(rec) > 1+fingerprint.Size+16 {
				t.Errorf("record kind %d is %d bytes: it carries chunk data", rec[0], len(rec))
			}
		}
		want := []byte{recSeal, recPut, recRef, recDeref, recDeref, recMove, recDrop}
		if !bytes.Equal(kinds, want) {
			t.Fatalf("tail record kinds = %v, want %v", kinds, want)
		}
	}

	s, err := Open(ctx, backend, fixtureContainerSize)
	if err != nil {
		t.Fatal(err)
	}
	_, a := fixtureChunk('a')
	if s.Has(a) {
		t.Error("freed chunk a is back")
	}
	for _, letter := range []byte("bcde") {
		data, fp := fixtureChunk(letter)
		got, err := s.Get(ctx, fp)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("Get %c = %q, %v", letter, got, err)
		}
		wantRefs := uint32(1)
		if letter == 'c' {
			wantRefs = 2
		}
		if refs := s.Refs(fp); refs != wantRefs {
			t.Errorf("Refs %c = %d, want %d", letter, refs, wantRefs)
		}
	}
	wantStats := Stats{
		TotalPuts: 7, DedupedPuts: 2,
		LogicalBytes: 7 * fixtureChunkSize, PhysicalBytes: 4 * fixtureChunkSize,
		FreedChunks: 1, FreedBytes: fixtureChunkSize, CompactedContainers: 1,
	}
	if got := s.Stats(); got != wantStats {
		t.Errorf("Stats = %+v, want %+v", got, wantStats)
	}
	// Sealed container 1 (c, d) plus the open container 2 (e, b).
	if n := s.ContainerCount(); n != 2 {
		t.Errorf("ContainerCount = %d, want 2", n)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
}
