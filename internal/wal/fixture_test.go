package wal

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

var update = flag.Bool("update", false, "rewrite the WAL segment fixture in testdata/ (an at-rest format break)")

// fixtureRecords is the content of testdata/segment.bin: one sealed
// segment holding an empty record, a short one and one with every byte
// value, so the length prefix, both CRCs and the trailer are all pinned.
func fixtureRecords() [][]byte {
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	return [][]byte{{}, []byte("reed fixture: wal"), all}
}

const (
	fixtureFile    = "segment.bin"
	fixtureSegment = "w0000000000000000"
)

// TestSegmentKnownAnswer: appending the scripted records to an empty
// log must write exactly the committed bytes under the pinned name.
func TestSegmentKnownAnswer(t *testing.T) {
	b := store.NewMemory()
	if err := openLog(t, b).Append(ctx, segment(fixtureRecords()...)); err != nil {
		t.Fatal(err)
	}
	got, err := b.Get(ctx, store.NSWAL, fixtureSegment)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", fixtureFile)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: scripted segment differs from the committed fixture", fixtureFile)
	}
}

// TestSegmentFixtureKeepsReplaying reads only the committed bytes: a
// log opened over them must sit after the segment and replay its
// records unchanged.
func TestSegmentFixtureKeepsReplaying(t *testing.T) {
	seg, err := os.ReadFile(filepath.Join("testdata", fixtureFile))
	if err != nil {
		t.Fatal(err)
	}
	b := store.NewMemory()
	if err := b.Put(ctx, store.NSWAL, fixtureSegment, seg); err != nil {
		t.Fatal(err)
	}
	l := openLog(t, b)
	if l.Next() != 1 {
		t.Fatalf("Next = %d, want 1", l.Next())
	}
	var got [][]byte
	if err := l.Replay(ctx, 0, func(rec []byte) error {
		got = append(got, append([]byte{}, rec...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := fixtureRecords()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("record %d = %x, want %x", i, got[i], want[i])
		}
	}
}
