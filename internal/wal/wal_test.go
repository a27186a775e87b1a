package wal

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"repro/internal/store"
	"repro/internal/store/storetest"
)

var ctx = context.Background()

func openLog(t *testing.T, b store.Backend) *Log {
	t.Helper()
	l, err := Open(ctx, b, store.NSWAL, "w")
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// segment frames each payload into one batch body.
func segment(payloads ...[]byte) []byte {
	var seg []byte
	for _, p := range payloads {
		seg = AppendRecord(seg, p)
	}
	return seg
}

// sealed builds a segment of the retired layout: one batch body
// followed by its length and a CRC-32 over everything before the CRC.
func sealed(payloads ...[]byte) []byte {
	seg := segment(payloads...)
	seg = binary.BigEndian.AppendUint32(seg, uint32(len(seg)))
	return binary.BigEndian.AppendUint32(seg, crc32.ChecksumIEEE(seg))
}

// replayAll reopens the log over b and returns every record it replays
// from segment 0.
func replayAll(t *testing.T, b store.Backend) [][]byte {
	t.Helper()
	var got [][]byte
	if err := openLog(t, b).Replay(ctx, 0, func(rec []byte) error {
		got = append(got, append([]byte(nil), rec...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func mustAppend(t *testing.T, l *Log, payloads ...[]byte) {
	t.Helper()
	if err := l.Append(ctx, segment(payloads...)); err != nil {
		t.Fatal(err)
	}
}

func mustRoll(t *testing.T, l *Log) uint64 {
	t.Helper()
	seq, err := l.Roll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func TestAppendReplayRoundTrip(t *testing.T) {
	b := store.NewMemory()
	l := openLog(t, b)

	batches := [][][]byte{
		{[]byte("a"), []byte("bb")},
		{[]byte("ccc")},
		{[]byte(""), []byte("dddd"), []byte("e")},
	}
	var want [][]byte
	for _, batch := range batches {
		mustAppend(t, l, batch...)
		want = append(want, batch...)
	}
	// Every batch went to the one active segment, in place.
	if names, _ := b.List(ctx, store.NSWAL); len(names) != 1 || names[0] != "w0000000000000000" {
		t.Fatalf("segments = %v, want only w0000000000000000", names)
	}
	if pos := mustRoll(t, l); pos != 1 {
		t.Fatalf("Roll = %d, want 1", pos)
	}

	// A fresh Open replays everything and appends to a new segment.
	got := replayAll(t, b)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	if pos := mustRoll(t, openLog(t, b)); pos != 1 {
		t.Fatalf("reopened log's active segment = %d, want 1", pos)
	}
}

func TestReplayFrom(t *testing.T) {
	b := store.NewMemory()
	l := openLog(t, b)
	for i := 0; i < 4; i++ {
		mustAppend(t, l, []byte{byte(i)})
		mustRoll(t, l)
	}
	var got []byte
	if err := openLog(t, b).Replay(ctx, 2, func(rec []byte) error {
		got = append(got, rec[0])
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{2, 3}) {
		t.Fatalf("Replay(2) saw %v", got)
	}
}

// TestAppendRolls: a segment rolls once it holds rollBatches times the
// incoming batch, but not before minRollBytes and not after
// maxRollBytes, and replay crosses the boundaries in order.
func TestAppendRolls(t *testing.T) {
	for _, tc := range []struct {
		name          string
		size, batches int
		want          int // segments
	}{
		// 64 KiB of 1 KiB batches fill the first segment.
		{"small batches roll at minRollBytes", 1 << 10, 70, 2},
		// Eight 64 KiB batches share a segment.
		{"rollBatches per segment", 64 << 10, 17, 3},
		// A third of maxRollBytes each: three per segment.
		{"large batches roll at maxRollBytes", maxRollBytes / 3, 4, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := store.NewMemory()
			l := openLog(t, b)
			body := make([]byte, tc.size)
			for i := 0; i < tc.batches; i++ {
				body[0] = byte(i)
				mustAppend(t, l, body)
			}
			names, err := b.List(ctx, store.NSWAL)
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != tc.want {
				t.Fatalf("%d segments, want %d", len(names), tc.want)
			}
			got := replayAll(t, b)
			if len(got) != tc.batches {
				t.Fatalf("replayed %d records, want %d", len(got), tc.batches)
			}
			for i, rec := range got {
				if rec[0] != byte(i) {
					t.Fatalf("record %d is batch %d", i, rec[0])
				}
			}
		})
	}
}

// TestTornTailEveryByteBoundary cuts the last segment — an earlier
// whole batch, then a batch of three records — at every byte: replay
// must never fail, must keep every whole batch before the cut and must
// drop the torn one whole, never a prefix of its records. Within the
// last append the tear also takes a second shape, zeros from the cut
// to the append's end, as a crash leaves a file that grew before its
// bytes landed; a length field torn short then leaves zeros after the
// batch it claims.
func TestTornTailEveryByteBoundary(t *testing.T) {
	payloads := [][]byte{
		[]byte("first-record"),
		[]byte("second"),
		bytes.Repeat([]byte{0x5A}, 300), // a batch over 256 bytes, so a length torn short stays a length
	}
	src := store.NewMemory()
	l := openLog(t, src)
	mustAppend(t, l, []byte("earlier-segment"))
	mustRoll(t, l)
	mustAppend(t, l, []byte("earlier-batch"))
	firstEnd := len(segmentMagic) + frameHeader + len(segment([]byte("earlier-batch")))
	mustAppend(t, l, payloads...)
	full, err := src.Get(ctx, store.NSWAL, "w0000000000000001")
	if err != nil {
		t.Fatal(err)
	}
	seg0, err := src.Get(ctx, store.NSWAL, "w0000000000000000")
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2*(len(full)+1); i++ {
		cut, zeroed := i/2, i%2 == 1 // every cut, and past firstEnd zero-filled too
		if zeroed && cut < firstEnd {
			continue
		}
		what, torn := fmt.Sprintf("cut at %d", cut), full[:cut]
		if zeroed {
			what, torn = fmt.Sprintf("zeros from %d", cut), append(full[:cut:cut], make([]byte, len(full)-cut)...)
		}
		b := store.NewMemory()
		if err := b.Put(ctx, store.NSWAL, "w0000000000000000", seg0); err != nil {
			t.Fatal(err)
		}
		if err := b.Put(ctx, store.NSWAL, "w0000000000000001", torn); err != nil {
			t.Fatal(err)
		}
		wantRecs := 1 // the earlier segment's record always survives
		if cut >= firstEnd {
			wantRecs++
		}
		if cut == len(full) {
			wantRecs += len(payloads)
		}
		if got := len(replayAll(t, b)); got != wantRecs {
			t.Fatalf("%s: replayed %d records, want %d", what, got, wantRecs)
		}

		// The tear is healed: after appending to a new segment the
		// once-torn one is no longer last, and replay still succeeds.
		mustAppend(t, openLog(t, b), []byte("post-recovery"))
		if again := len(replayAll(t, b)); again != wantRecs+1 {
			t.Fatalf("%s: replay after heal saw %d records, want %d", what, again, wantRecs+1)
		}
	}
}

// TestTornSealedSegment: a last segment that is a cut-short sealed
// segment of the retired layout is not an intact one, so it is a torn
// first append: it holds no whole batch, is dropped whole and is healed
// to an empty segment of the current layout.
func TestTornSealedSegment(t *testing.T) {
	full := sealed([]byte("one"), []byte("two"))
	for cut := 0; cut < len(full); cut++ {
		b := store.NewMemory()
		mustAppend(t, openLog(t, b), []byte("kept"))
		if err := b.Put(ctx, store.NSWAL, "w0000000000000001", full[:cut]); err != nil {
			t.Fatal(err)
		}
		if got := replayAll(t, b); len(got) != 1 || string(got[0]) != "kept" {
			t.Fatalf("cut %d: replayed %q", cut, got)
		}
		healed, err := b.Get(ctx, store.NSWAL, "w0000000000000001")
		if err != nil || string(healed) != segmentMagic {
			t.Fatalf("cut %d: healed segment = %q, %v", cut, healed, err)
		}
	}
}

// TestSealedThenInPlaceSegments: a log over intact segments of the
// retired layout still appends after them, but replay refuses the
// sealed ones with ErrRetiredLayout before it reaches the in-place
// segment, so even that segment's torn tail is left unhealed.
func TestSealedThenInPlaceSegments(t *testing.T) {
	b := store.NewMemory()
	for i := 0; i < 2; i++ {
		if err := b.Put(ctx, store.NSWAL, fmt.Sprintf("w%016x", i), sealed([]byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	l := openLog(t, b)
	mustAppend(t, l, []byte{2})
	mustAppend(t, l, []byte{3})
	last := fmt.Sprintf("w%016x", 2)
	seg, err := b.Get(ctx, store.NSWAL, last)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put(ctx, store.NSWAL, last, seg[:len(seg)-2]); err != nil {
		t.Fatal(err)
	}
	before := make(map[string][]byte)
	names, _ := b.List(ctx, store.NSWAL)
	for _, name := range names {
		before[name], _ = b.Get(ctx, store.NSWAL, name)
	}
	err = openLog(t, b).Replay(ctx, 0, func([]byte) error {
		t.Error("replayed a record")
		return nil
	})
	if !errors.Is(err, ErrRetiredLayout) || errors.Is(err, ErrTorn) {
		t.Fatalf("Replay = %v, want ErrRetiredLayout", err)
	}
	for name, want := range before {
		if got, err := b.Get(ctx, store.NSWAL, name); err != nil || !bytes.Equal(got, want) {
			t.Errorf("segment %s changed (%v)", name, err)
		}
	}
}

// TestCorruptTailBitFlip flips one byte in the last batch of the last
// segment: the CRC catches it and that batch alone is discarded as a
// torn tail. The same flip in an earlier batch of that segment, with
// bytes after it, is corruption and fails the replay.
func TestCorruptTailBitFlip(t *testing.T) {
	b := store.NewMemory()
	l := openLog(t, b)
	mustAppend(t, l, []byte("committed-earlier"))
	mustAppend(t, l, []byte("good-one"), []byte("good-two"), []byte("gets-corrupted"))
	seg, err := b.Get(ctx, store.NSWAL, "w0000000000000000")
	if err != nil {
		t.Fatal(err)
	}
	flip := func(i int) {
		t.Helper()
		mut := bytes.Clone(seg)
		mut[i] ^= 0x40
		if err := b.Put(ctx, store.NSWAL, "w0000000000000000", mut); err != nil {
			t.Fatal(err)
		}
	}

	flip(len(seg) - 3)
	if got := replayAll(t, b); len(got) != 1 {
		t.Fatalf("replayed %d records, want 1 (corrupt last batch discarded)", len(got))
	}

	flip(len(segmentMagic) + frameHeader + 2)
	err = openLog(t, b).Replay(ctx, 0, func([]byte) error { return nil })
	if err == nil || errors.Is(err, ErrTorn) {
		t.Fatalf("Replay over a corrupt batch followed by another = %v, want corruption", err)
	}
}

// TestCorruptionBeforeFinalSegmentIsFatal: damage in a non-final
// segment means acknowledged writes are gone — replay must error, not
// skip.
func TestCorruptionBeforeFinalSegmentIsFatal(t *testing.T) {
	b := store.NewMemory()
	l := openLog(t, b)
	mustAppend(t, l, []byte("segment-zero"))
	mustRoll(t, l)
	mustAppend(t, l, []byte("segment-one"))
	seg0, err := b.Get(ctx, store.NSWAL, "w0000000000000000")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put(ctx, store.NSWAL, "w0000000000000000", seg0[:len(seg0)-1]); err != nil {
		t.Fatal(err)
	}

	err = openLog(t, b).Replay(ctx, 0, func(rec []byte) error { return nil })
	if !errors.Is(err, ErrTorn) {
		t.Fatalf("Replay = %v, want ErrTorn", err)
	}
}

func TestMissingSegmentIsFatal(t *testing.T) {
	b := store.NewMemory()
	l := openLog(t, b)
	for i := 0; i < 3; i++ {
		mustAppend(t, l, []byte{byte(i)})
		mustRoll(t, l)
	}
	if err := b.Delete(ctx, store.NSWAL, "w0000000000000001"); err != nil {
		t.Fatal(err)
	}
	if err := openLog(t, b).Replay(ctx, 0, func(rec []byte) error { return nil }); err == nil {
		t.Fatal("Replay with a missing middle segment succeeded")
	}
}

// TestFailedAppendRetriesAtSameOffset: a failed append leaves the log
// where it was; the retry overwrites the torn bytes, and a roll after a
// failure truncates them first, so no segment but the last is torn.
func TestFailedAppendRetriesAtSameOffset(t *testing.T) {
	faults := storetest.New()
	b := faults.View("server")
	l := openLog(t, b)
	mustAppend(t, l, []byte("zero"))
	tear := faults.Add(&storetest.Rule{Ops: storetest.WriteAt, Tear: true})
	if err := l.Append(ctx, segment([]byte("one"))); err == nil {
		t.Fatal("append over a tearing backend succeeded")
	}
	faults.Remove(tear)
	mustAppend(t, l, []byte("one"))

	tear = faults.Add(&storetest.Rule{Ops: storetest.WriteAt, Tear: true})
	if err := l.Append(ctx, segment([]byte("never acknowledged"))); err == nil {
		t.Fatal("append over a tearing backend succeeded")
	}
	faults.Remove(tear)
	mustRoll(t, l)
	mustAppend(t, l, []byte("two"))

	var got []string
	for _, rec := range replayAll(t, b) {
		got = append(got, string(rec))
	}
	if fmt.Sprint(got) != "[zero one two]" {
		t.Fatalf("replayed %q", got)
	}
}

func TestTruncateBefore(t *testing.T) {
	b := store.NewMemory()
	l := openLog(t, b)
	for i := 0; i < 5; i++ {
		mustAppend(t, l, []byte{byte(i)})
		mustRoll(t, l)
	}
	if err := l.TruncateBefore(ctx, 3); err != nil {
		t.Fatal(err)
	}
	names, err := b.List(ctx, store.NSWAL)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("segments after truncate = %v", names)
	}
	// Replay from the checkpoint position still works.
	l2 := openLog(t, b)
	var got []byte
	if err := l2.Replay(ctx, 3, func(rec []byte) error {
		got = append(got, rec[0])
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{3, 4}) {
		t.Fatalf("Replay(3) saw %v", got)
	}
	// A reopened log appends after the surviving segments.
	if pos := mustRoll(t, l2); pos != 5 {
		t.Fatalf("active segment after truncate+reopen = %d, want 5", pos)
	}
}

func TestForeignBlobRejected(t *testing.T) {
	b := store.NewMemory()
	if err := b.Put(ctx, store.NSWAL, "not-a-segment", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(ctx, b, store.NSWAL, "w"); err == nil {
		t.Fatal("Open accepted a foreign blob in the WAL namespace")
	}
}

func TestSegmentNameRoundTrip(t *testing.T) {
	l := &Log{prefix: "w"}
	for _, seq := range []uint64{0, 1, 255, 1 << 40, ^uint64(0)} {
		name := l.segmentName(seq)
		got, ok := l.parseSegmentName(name)
		if !ok || got != seq {
			t.Fatalf("round trip %d -> %q -> %d, %v", seq, name, got, ok)
		}
	}
	for _, bad := range []string{"", "w", "w123", "x" + fmt.Sprintf("%016x", 7), "w000000000000000G"} {
		if _, ok := l.parseSegmentName(bad); ok {
			t.Fatalf("parseSegmentName(%q) accepted", bad)
		}
	}
}
