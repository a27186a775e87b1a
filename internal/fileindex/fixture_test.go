package fileindex

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

var update = flag.Bool("update", false, "rewrite the snapshot and in-place WAL fixtures in testdata/ (an at-rest format break)")

// fixtureBlobs maps each committed file to the backend blob it is a
// byte copy of: a version-1 snapshot of two entries and the WAL segment
// of the one registration journaled after it, in the log's older
// sealed-segment layout. Stores stopped writing that layout when the
// log began to append in place; the file stays to prove such a store
// still opens.
var fixtureBlobs = []struct{ file, ns, name string }{
	{"snapshot_v1.bin", store.NSMeta, "file-index"},
	{"wal_register.bin", store.NSFileWAL, "f0000000000000001"},
}

// fixtureBlobsInPlace is the same history in the current format: the
// registration is one batch of an in-place segment.
var fixtureBlobsInPlace = []struct{ file, ns, name string }{
	fixtureBlobs[0],
	{"wal_register_inplace.bin", store.NSFileWAL, "f0000000000000001"},
}

// fixtureEntries is the end state: seeds 1 and 2 are in the snapshot
// (registered out of key order, so the snapshot's sort is pinned too),
// seed 3 only in the WAL.
var fixtureEntries = []struct {
	seed byte
	name string
}{
	{2, "recipes/second"},
	{1, "recipes/first"},
	{3, "recipes/journaled-only"},
}

// TestFixturesKnownAnswer: registering the scripted entries around one
// checkpoint must leave exactly the committed bytes in the backend.
func TestFixturesKnownAnswer(t *testing.T) {
	backend := store.NewMemory()
	ix, err := Open(ctx, backend)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range fixtureEntries {
		if i == 2 {
			// Checkpoint: folds segment 0 into the snapshot.
			if err := ix.Flush(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if err := ix.Register(ctx, testKey(e.seed), e.name); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	for _, fx := range fixtureBlobsInPlace {
		names, err := backend.List(ctx, fx.ns)
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != 1 || names[0] != fx.name {
			t.Fatalf("namespace %s holds %v, want only %s", fx.ns, names, fx.name)
		}
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

// TestFixturesKeepOpening reads only the committed bytes, with the WAL
// segment in either layout: an index opened over them must hold all
// three entries.
func TestFixturesKeepOpening(t *testing.T) {
	for name, blobs := range map[string][]struct{ file, ns, name string }{
		"sealed segment":   fixtureBlobs,
		"in-place segment": fixtureBlobsInPlace,
	} {
		t.Run(name, func(t *testing.T) { checkFixtures(t, blobs) })
	}
}

func checkFixtures(t *testing.T, blobs []struct{ file, ns, name string }) {
	backend := store.NewMemory()
	for _, fx := range blobs {
		blob, err := os.ReadFile(filepath.Join("testdata", fx.file))
		if err != nil {
			t.Fatal(err)
		}
		if err := backend.Put(ctx, fx.ns, fx.name, blob); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := Open(ctx, backend)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != len(fixtureEntries) {
		t.Errorf("Len = %d, want %d", ix.Len(), len(fixtureEntries))
	}
	for _, e := range fixtureEntries {
		if name, ok := ix.Lookup(testKey(e.seed)); !ok || name != e.name {
			t.Errorf("Lookup seed %d = %q, %v; want %q", e.seed, name, ok, e.name)
		}
	}
}
