package fileindex

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/store"
	"repro/internal/store/storetest"
	"repro/internal/wal"
)

var update = flag.Bool("update", false, "rewrite the snapshot and in-place WAL fixtures in testdata/ (an at-rest format break)")

// fixtureBlobs maps each committed file to the backend blob it is a
// byte copy of: a version-1 snapshot of two entries and the WAL segment
// of the one registration journaled after it, in the log's retired
// sealed-segment layout. Stores stopped writing that layout when the
// log began to append in place; the file stays to prove such a store
// fails closed.
var fixtureBlobs = []storetest.Fixture{
	{File: "snapshot_v1.bin", NS: store.NSMeta, Name: "file-index"},
	{File: "wal_register.bin", NS: store.NSFileWAL, Name: "f0000000000000001"},
}

// fixtureBlobsInPlace is the same history in the current format: the
// registration is one batch of an in-place segment.
var fixtureBlobsInPlace = []storetest.Fixture{
	fixtureBlobs[0],
	{File: "wal_register_inplace.bin", NS: store.NSFileWAL, Name: "f0000000000000001"},
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
		names, err := backend.List(ctx, fx.NS)
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != 1 || names[0] != fx.Name {
			t.Fatalf("namespace %s holds %v, want only %s", fx.NS, names, fx.Name)
		}
		got, err := backend.Get(ctx, fx.NS, fx.Name)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", fx.File)
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
			t.Errorf("%s: scripted state differs from the committed fixture", fx.File)
		}
	}
}

// TestFixturesKeepOpening reads only the committed bytes of the current
// layout: an index opened over them must hold all three entries.
func TestFixturesKeepOpening(t *testing.T) {
	t.Run("in-place segment", func(t *testing.T) {
		ix, err := Open(ctx, storetest.Load(t, fixtureBlobsInPlace...))
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
	})
}

// TestSealedSegmentFixtureFailsClosed: over the committed WAL segment
// of the retired sealed layout, Open must fail with
// wal.ErrRetiredLayout and leave both blobs byte for byte as they were.
func TestSealedSegmentFixtureFailsClosed(t *testing.T) {
	backend := storetest.Load(t, fixtureBlobs...)
	if _, err := Open(ctx, backend); !errors.Is(err, wal.ErrRetiredLayout) {
		t.Fatalf("Open = %v, want wal.ErrRetiredLayout", err)
	}
	for _, fx := range fixtureBlobs {
		names, err := backend.List(ctx, fx.NS)
		if err != nil || !slices.Equal(names, []string{fx.Name}) {
			t.Errorf("namespace %s holds %v (%v), want only %s", fx.NS, names, err, fx.Name)
		}
		got, err := backend.Get(ctx, fx.NS, fx.Name)
		want, _ := os.ReadFile(filepath.Join("testdata", fx.File))
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s changed by the failed Open (%v)", fx.File, err)
		}
	}
}
