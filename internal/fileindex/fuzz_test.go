package fileindex

import (
	"bytes"
	"os"
	"testing"
)

// FuzzFileIndexDecode fuzzes both decode boundaries — WAL record
// payloads, and checkpoint snapshots through the journal's envelope
// check into the index's body decode — with the same corpus: both come
// off the backend, which a crashed or corrupted deployment may have
// mangled arbitrarily. Decoders must reject garbage with an error, and
// anything DecodeRecord accepts must re-encode to the identical bytes.
func FuzzFileIndexDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{recRegister})
	f.Add(EncodeRecord(testKey(1), "recipes/a"))
	f.Add(EncodeRecord(Key{}, "x"))
	snapshot, err := os.ReadFile("testdata/snapshot_v1.bin")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snapshot)
	f.Fuzz(func(t *testing.T, data []byte) {
		key, name, err := DecodeRecord(data)
		if err == nil {
			if name == "" {
				t.Fatal("DecodeRecord accepted an empty name")
			}
			if !bytes.Equal(EncodeRecord(key, name), data) {
				t.Fatalf("record round trip changed bytes: %x", data)
			}
		}
		entries, err := decodeSnapshot(data)
		if err == nil {
			for k, n := range entries {
				if n == "" {
					t.Fatalf("snapshot decode accepted empty name for %+v", k)
				}
			}
		}
	})
}
