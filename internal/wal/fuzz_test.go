package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeSegment fuzzes the decoder every journal's segments pass
// through at recovery, bytes a crash or a corrupted backend may have
// mangled arbitrarily. It must never panic and never claim more valid
// bytes than the segment holds. A torn segment's whole batches must
// decode on their own to the same records without an error, since that
// prefix is what recovery heals the segment to. A segment without the
// magic, including every sealed segment of the retired layout, yields
// no records.
func FuzzDecodeSegment(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(segmentMagic))
	f.Add([]byte(segmentMagic[:2]))
	for _, file := range []string{sealedFixture, activeFixture} {
		seg, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seg)
	}
	f.Add(append([]byte(segmentMagic), AppendRecord(nil, AppendRecord(nil, []byte("one")))...))
	f.Fuzz(func(t *testing.T, seg []byte) {
		recs, valid, err := DecodeSegment(seg)
		if valid < 0 || valid > len(seg) {
			t.Fatalf("valid = %d for a %d-byte segment", valid, len(seg))
		}
		if !bytes.HasPrefix(seg, []byte(segmentMagic)) && len(recs) > 0 {
			t.Fatalf("%d records from a segment without the magic", len(recs))
		}
		if !errors.Is(err, ErrTorn) {
			return
		}
		again, againValid, err := DecodeSegment(seg[:valid])
		if err != nil || againValid != valid {
			t.Fatalf("the %d whole bytes of a torn segment decode to valid %d, %v", valid, againValid, err)
		}
		if len(again) != len(recs) {
			t.Fatalf("the whole bytes of a torn segment hold %d records, the segment %d", len(again), len(recs))
		}
		for i := range recs {
			if !bytes.Equal(again[i], recs[i]) {
				t.Fatalf("record %d differs between the torn segment and its whole bytes", i)
			}
		}
	})
}
