package proto

import (
	"bytes"
	"testing"

	"repro/internal/fingerprint"
)

// Fuzz targets: every decoder that consumes bytes from the network must
// return an error on malformed input, never panic or over-allocate.
// `go test` runs the seed corpus; `go test -fuzz=FuzzX` explores further.

func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteFrame(&buf, MsgKeyGenReq, 99, []byte("seed"))
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 5, 1, 0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, _, payload, err := ReadFrame(bytes.NewReader(data))
		if err == nil && int(typ) == 0 && payload == nil {
			t.Fatal("nil frame decoded without error")
		}
	})
}

func FuzzDecodePutChunksReq(f *testing.F) {
	f.Add(EncodePutChunksReq([]ChunkUpload{{FP: fingerprint.New([]byte("x")), Data: []byte("d")}}))
	f.Add([]byte{0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		chunks, err := DecodePutChunksReq(data)
		if err == nil {
			// Re-encoding must round-trip.
			if _, err := DecodePutChunksReq(EncodePutChunksReq(chunks)); err != nil {
				t.Fatalf("re-encode round trip failed: %v", err)
			}
		}
	})
}

func FuzzDecodeGetChunksReq(f *testing.F) {
	f.Add(EncodeGetChunksReq([]fingerprint.Fingerprint{fingerprint.New([]byte("x"))}))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = DecodeGetChunksReq(data)
	})
}

func FuzzDecodeBlobReq(f *testing.F) {
	f.Add(EncodeBlobReq("stubs", "name", []byte("data")))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _, _ = DecodeBlobReq(data)
	})
}

func FuzzDecodeBlobList(f *testing.F) {
	f.Add(EncodeBlobList([][]byte{[]byte("a"), []byte("b")}))
	f.Add(EncodeBlobList([][]byte{nil, bytes.Repeat([]byte("z"), 300), []byte("c")}))
	f.Fuzz(func(t *testing.T, data []byte) {
		items, err := DecodeBlobList(data, 64)
		if err != nil {
			return
		}
		again, err := DecodeBlobList(EncodeBlobList(items), len(items))
		if err != nil || len(again) != len(items) {
			t.Fatalf("re-encode round trip failed: %d items, err %v", len(again), err)
		}
		for i := range items {
			if !bytes.Equal(again[i], items[i]) {
				t.Fatalf("item %d changed in the round trip", i)
			}
			if cap(items[i]) != len(items[i]) {
				t.Fatalf("item %d has capacity %d past its %d bytes", i, cap(items[i]), len(items[i]))
			}
		}
	})
}

func FuzzDecodeStats(f *testing.F) {
	f.Add(EncodeStats(Stats{TotalPuts: 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = DecodeStats(data)
	})
}
