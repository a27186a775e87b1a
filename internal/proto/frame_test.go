package proto

import (
	"bytes"
	"testing"
)

func TestAppendFrameMatchesWriteFrame(t *testing.T) {
	payload := []byte("hello frame")
	var legacy bytes.Buffer
	if err := WriteFrame(&legacy, MsgPutChunksReq, 42, payload); err != nil {
		t.Fatal(err)
	}
	appended, err := AppendFrame(nil, MsgPutChunksReq, 42, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacy.Bytes(), appended) {
		t.Fatal("AppendFrame output differs from WriteFrame")
	}

	typ, id, body, err := ReadFrame(bytes.NewReader(appended))
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgPutChunksReq || id != 42 || !bytes.Equal(body, payload) {
		t.Fatalf("round trip mismatch: typ=%v id=%d", typ, id)
	}
}

func TestPutFrameHeaderMatchesAppendFrame(t *testing.T) {
	payload := []byte("vectored payload")
	appended, err := AppendFrame(nil, MsgGetChunksResp, 7, payload)
	if err != nil {
		t.Fatal(err)
	}
	var header [FrameHeaderSize]byte
	if err := PutFrameHeader(header[:], MsgGetChunksResp, 7, len(payload)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(appended[:FrameHeaderSize], header[:]) {
		t.Fatal("PutFrameHeader differs from AppendFrame header")
	}
}

func TestWriteFrameVectoredRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 128<<10)
	var buf bytes.Buffer
	if err := WriteFrameVectored(&buf, MsgGetChunksResp, 99, payload); err != nil {
		t.Fatal(err)
	}
	typ, id, body, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgGetChunksResp || id != 99 || !bytes.Equal(body, payload) {
		t.Fatal("vectored frame round trip mismatch")
	}
}

func TestFrameSizeLimits(t *testing.T) {
	huge := make([]byte, MaxFrameSize)
	if _, err := AppendFrame(nil, MsgError, 1, huge); err != ErrFrameTooLarge {
		t.Fatalf("AppendFrame error = %v, want ErrFrameTooLarge", err)
	}
	if err := PutFrameHeader(make([]byte, FrameHeaderSize), MsgError, 1, MaxFrameSize); err != ErrFrameTooLarge {
		t.Fatalf("PutFrameHeader error = %v, want ErrFrameTooLarge", err)
	}
	if err := WriteFrameVectored(&bytes.Buffer{}, MsgError, 1, huge); err != ErrFrameTooLarge {
		t.Fatalf("WriteFrameVectored error = %v, want ErrFrameTooLarge", err)
	}
}

// TestFrameAssemblyZeroAlloc locks in the steady-state allocation
// behavior of the hot frame paths: assembling a frame into a
// presized buffer and encoding a frame header must not allocate.
func TestFrameAssemblyZeroAlloc(t *testing.T) {
	payload := bytes.Repeat([]byte("p"), 4096)
	scratch := make([]byte, 0, FrameHeaderSize+len(payload))
	if n := testing.AllocsPerRun(200, func() {
		out, err := AppendFrame(scratch[:0], MsgPutChunksReq, 1, payload)
		if err != nil || len(out) == 0 {
			t.Fatal("append failed")
		}
	}); n != 0 {
		t.Fatalf("AppendFrame allocates %v per run, want 0", n)
	}

	var header [FrameHeaderSize]byte
	if n := testing.AllocsPerRun(200, func() {
		if err := PutFrameHeader(header[:], MsgGetChunksResp, 2, len(payload)); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("PutFrameHeader allocates %v per run, want 0", n)
	}
}
