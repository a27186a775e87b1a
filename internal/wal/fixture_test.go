package wal

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

var update = flag.Bool("update", false, "rewrite the in-place segment fixture in testdata/ (an at-rest format break)")

// fixtureRecords is the content of testdata/segment.bin: one sealed
// segment of the older layout holding an empty record, a short one and
// one with every byte value, so the length prefix, both CRCs and the
// trailer are all pinned. It is also the first batch of
// testdata/active_segment.bin.
func fixtureRecords() [][]byte {
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	return [][]byte{{}, []byte("reed fixture: wal"), all}
}

// activeSecondBatch and activeTornBatch are the other two batches of
// testdata/active_segment.bin; the last is cut activeTornCut bytes
// short of its end.
var (
	activeSecondBatch = [][]byte{[]byte("reed fixture: second batch")}
	activeTornBatch   = [][]byte{[]byte("reed fixture: torn batch")}
)

const (
	sealedFixture  = "segment.bin"
	activeFixture  = "active_segment.bin"
	fixtureSegment = "w0000000000000000"
	activeTornCut  = 5
)

// writeActiveFixture appends the three batches to an empty log, cuts
// the last one short and returns the segment's bytes and the length of
// its two whole batches.
func writeActiveFixture(t *testing.T) (seg []byte, whole int) {
	t.Helper()
	b := store.NewMemory()
	l := openLog(t, b)
	mustAppend(t, l, fixtureRecords()...)
	mustAppend(t, l, activeSecondBatch...)
	whole = int(l.off)
	mustAppend(t, l, activeTornBatch...)
	seg, err := b.Get(ctx, store.NSWAL, fixtureSegment)
	if err != nil {
		t.Fatal(err)
	}
	return seg[:len(seg)-activeTornCut], whole
}

// TestSegmentKnownAnswer: appending the scripted batches to an empty
// log and cutting the last one short must give exactly the committed
// bytes of the in-place layout: magic, two whole batches, a torn tail.
func TestSegmentKnownAnswer(t *testing.T) {
	got, _ := writeActiveFixture(t)
	path := filepath.Join("testdata", activeFixture)
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
		t.Errorf("%s: scripted segment differs from the committed fixture", activeFixture)
	}
}

// replayFixture opens a log over one committed segment file and returns
// the records it replays and the backend it healed.
func replayFixture(t *testing.T, file string) ([][]byte, store.Backend) {
	t.Helper()
	seg, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	b := store.NewMemory()
	if err := b.Put(ctx, store.NSWAL, fixtureSegment, seg); err != nil {
		t.Fatal(err)
	}
	l := openLog(t, b)
	if pos := mustRoll(t, l); pos != 1 {
		t.Fatalf("%s: the log appends to segment %d, want 1", file, pos)
	}
	var got [][]byte
	if err := l.Replay(ctx, 0, func(rec []byte) error {
		got = append(got, append([]byte{}, rec...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got, b
}

func checkRecords(t *testing.T, file string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: replayed %d records, want %d", file, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("%s: record %d = %x, want %x", file, i, got[i], want[i])
		}
	}
}

// TestSegmentFixtureKeepsReplaying reads only the committed bytes of
// the older layout: a log opened over them must sit after the segment
// and replay its records unchanged.
func TestSegmentFixtureKeepsReplaying(t *testing.T) {
	got, _ := replayFixture(t, sealedFixture)
	checkRecords(t, sealedFixture, got, fixtureRecords())
}

// TestActiveSegmentFixtureKeepsReplaying reads only the committed bytes
// of the in-place layout: replay yields the two whole batches, drops
// the torn one whole, and heals the segment to the two batches' length.
func TestActiveSegmentFixtureKeepsReplaying(t *testing.T) {
	got, b := replayFixture(t, activeFixture)
	checkRecords(t, activeFixture, got, append(fixtureRecords(), activeSecondBatch...))
	healed, err := b.Get(ctx, store.NSWAL, fixtureSegment)
	if err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile(filepath.Join("testdata", activeFixture))
	if err != nil {
		t.Fatal(err)
	}
	_, whole := writeActiveFixture(t)
	if !bytes.Equal(healed, committed[:whole]) {
		t.Errorf("%s: healed to %d bytes, want its first %d", activeFixture, len(healed), whole)
	}
}
