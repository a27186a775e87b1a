package proto

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/fingerprint"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frame")
	if err := WriteFrame(&buf, MsgKeyGenReq, 42, payload); err != nil {
		t.Fatal(err)
	}
	typ, id, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgKeyGenReq || id != 42 || !bytes.Equal(got, payload) {
		t.Fatalf("frame = %v, %d, %q", typ, id, got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgStatsReq, 7, nil); err != nil {
		t.Fatal(err)
	}
	typ, id, got, err := ReadFrame(&buf)
	if err != nil || typ != MsgStatsReq || id != 7 || len(got) != 0 {
		t.Fatalf("frame = %v, %d, %v, %v", typ, id, got, err)
	}
}

func TestFrameRequestIDRange(t *testing.T) {
	// The full 64-bit ID range must survive the round trip.
	for _, id := range []uint64{0, 1, 1<<32 - 1, 1 << 32, 1<<64 - 1} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, MsgStatsReq, id, nil); err != nil {
			t.Fatal(err)
		}
		_, got, _, err := ReadFrame(&buf)
		if err != nil || got != id {
			t.Fatalf("id %d round-tripped to %d (err %v)", id, got, err)
		}
	}
}

func TestMultipleFramesSequential(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		if err := WriteFrame(&buf, MsgPutBlobReq, uint64(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		_, id, payload, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if payload[0] != byte(i) || id != uint64(i) {
			t.Fatalf("frame %d out of order (id %d)", i, id)
		}
	}
	if _, _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestReadFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, _, err := ReadFrame(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("error = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameShort(t *testing.T) {
	// A length below the type+ID overhead cannot be a valid frame.
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 5, byte(MsgError), 0, 0, 0, 0})
	if _, _, _, err := ReadFrame(&buf); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("error = %v, want ErrBadMessage", err)
	}
}

func TestReadFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 20, byte(MsgError), 1, 2}) // claims 20, has 3
	if _, _, _, err := ReadFrame(&buf); err == nil {
		t.Fatal("truncated body expected error")
	}
}

func TestWriteFrameTooLarge(t *testing.T) {
	if err := WriteFrame(io.Discard, MsgError, 0, make([]byte, MaxFrameSize)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("error = %v, want ErrFrameTooLarge", err)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	re, err := DecodeError(EncodeError("boom"))
	if err != nil {
		t.Fatal(err)
	}
	if re.Message != "boom" || re.Error() != "remote: boom" {
		t.Fatalf("RemoteError = %+v", re)
	}
}

func TestBlobListRoundTrip(t *testing.T) {
	items := [][]byte{[]byte("a"), nil, []byte("ccc")}
	got, err := DecodeBlobList(EncodeBlobList(items), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !bytes.Equal(got[0], []byte("a")) || len(got[1]) != 0 || !bytes.Equal(got[2], []byte("ccc")) {
		t.Fatalf("DecodeBlobList = %v", got)
	}
}

// TestBlobListItemsAliasPayload: decoded items are views of the payload,
// not copies, and each is capacity-capped, so appending to one item
// reallocates it rather than overwriting the next.
func TestBlobListItemsAliasPayload(t *testing.T) {
	payload := EncodeBlobList([][]byte{[]byte("first"), []byte("second")})
	got, err := DecodeBlobList(payload, 2)
	if err != nil {
		t.Fatal(err)
	}
	if start := len(payload) - len("second"); &got[1][0] != &payload[start] {
		t.Fatal("item 1 does not alias the payload")
	}
	grown := append(got[0], "XXXXXXXX"...)
	if !bytes.Equal(got[1], []byte("second")) {
		t.Fatalf("appending to item 0 overwrote item 1: %q", got[1])
	}
	if !bytes.Equal(grown, []byte("firstXXXXXXXX")) {
		t.Fatalf("grown item 0 = %q", grown)
	}
}

func TestBlobListLimit(t *testing.T) {
	items := [][]byte{{1}, {2}, {3}}
	if _, err := DecodeBlobList(EncodeBlobList(items), 2); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("error = %v, want ErrBadMessage", err)
	}
}

func TestPutChunksRoundTrip(t *testing.T) {
	chunks := []ChunkUpload{
		{FP: fingerprint.New([]byte("a")), Data: []byte("trimmed-a")},
		{FP: fingerprint.New([]byte("b")), Data: []byte("trimmed-b")},
	}
	got, err := DecodePutChunksReq(EncodePutChunksReq(chunks))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("count = %d", len(got))
	}
	for i := range chunks {
		if got[i].FP != chunks[i].FP || !bytes.Equal(got[i].Data, chunks[i].Data) {
			t.Fatalf("chunk %d mismatch", i)
		}
	}
}

// TestPutChunksDecodeAliasesFrame pins the zero-copy decode: each
// chunk views the request bytes, capped at its own end.
func TestPutChunksDecodeAliasesFrame(t *testing.T) {
	payload := EncodePutChunksReq([]ChunkUpload{
		{FP: fingerprint.New([]byte("a")), Data: []byte("first")},
		{FP: fingerprint.New([]byte("b")), Data: []byte("second")},
	})
	got, err := DecodePutChunksReq(payload)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(payload, []byte("first"))
	payload[i] = 'F'
	if string(got[0].Data) != "First" {
		t.Fatalf("chunk 0 = %q: it does not alias the frame", got[0].Data)
	}
	if cap(got[0].Data) != len(got[0].Data) {
		t.Fatalf("chunk 0 has capacity %d past its %d bytes", cap(got[0].Data), len(got[0].Data))
	}
}

func TestPutChunksRespRoundTrip(t *testing.T) {
	dups := []bool{true, false, true}
	got, err := DecodePutChunksResp(EncodePutChunksResp(dups))
	if err != nil {
		t.Fatal(err)
	}
	for i := range dups {
		if got[i] != dups[i] {
			t.Fatalf("dup %d mismatch", i)
		}
	}
}

func TestGetChunksRoundTrip(t *testing.T) {
	fps := []fingerprint.Fingerprint{
		fingerprint.New([]byte("x")),
		fingerprint.New([]byte("y")),
	}
	got, err := DecodeGetChunksReq(EncodeGetChunksReq(fps))
	if err != nil {
		t.Fatal(err)
	}
	for i := range fps {
		if got[i] != fps[i] {
			t.Fatalf("fp %d mismatch", i)
		}
	}
}

func TestBlobReqRoundTrip(t *testing.T) {
	ns, name, data, err := DecodeBlobReq(EncodeBlobReq("stubs", "file-1", []byte("stub bytes")))
	if err != nil {
		t.Fatal(err)
	}
	if ns != "stubs" || name != "file-1" || !bytes.Equal(data, []byte("stub bytes")) {
		t.Fatalf("blob req = %q %q %q", ns, name, data)
	}
}

func TestStatsRoundTrip(t *testing.T) {
	s := Stats{TotalPuts: 1, DedupedPuts: 2, LogicalBytes: 3, PhysicalBytes: 4, StubBytes: 5}
	got, err := DecodeStats(EncodeStats(s))
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Fatalf("stats = %+v, want %+v", got, s)
	}
}

func TestDecodersRejectGarbage(t *testing.T) {
	garbage := []byte{0xFF, 0x01, 0x02}
	decoders := map[string]func([]byte) error{
		"Error":         func(b []byte) error { _, err := DecodeError(b); return err },
		"BlobList":      func(b []byte) error { _, err := DecodeBlobList(b, 10); return err },
		"PutChunksReq":  func(b []byte) error { _, err := DecodePutChunksReq(b); return err },
		"PutChunksResp": func(b []byte) error { _, err := DecodePutChunksResp(b); return err },
		"GetChunksReq":  func(b []byte) error { _, err := DecodeGetChunksReq(b); return err },
		"BlobReq":       func(b []byte) error { _, _, _, err := DecodeBlobReq(b); return err },
		"Stats":         func(b []byte) error { _, err := DecodeStats(b); return err },
	}
	for name, dec := range decoders {
		t.Run(name, func(t *testing.T) {
			if err := dec(garbage); err == nil {
				t.Fatal("garbage accepted")
			}
		})
	}
}

func TestMsgTypeString(t *testing.T) {
	if MsgKeyGenReq.String() != "KeyGenReq" {
		t.Fatalf("String = %q", MsgKeyGenReq.String())
	}
	if MsgType(200).String() != "MsgType(200)" {
		t.Fatalf("String = %q", MsgType(200).String())
	}
	if MsgType(0).String() != "MsgType(0)" {
		t.Fatalf("String = %q", MsgType(0).String())
	}
}

// TestMsgTypeTable walks the one per-MsgType table. The literal below
// pins the wire value of every message type: a frame's type byte is
// part of the wire format, so a constant inserted or reordered in the
// const block fails here. The walk then checks what a switch-based
// classification needed an analyzer for: every request carries a retry
// class (the expected one), nothing else does, and each request is
// answered by the same-named response at typ+1 (what rpcmux waits for).
func TestMsgTypeTable(t *testing.T) {
	wire := map[MsgType]string{
		1: "Error",
		2: "KMParamsReq", 3: "KMParamsResp",
		4: "KeyGenReq", 5: "KeyGenResp",
		6: "PutChunksReq", 7: "PutChunksResp",
		8: "GetChunksReq", 9: "GetChunksResp",
		10: "PutBlobReq", 11: "PutBlobResp",
		12: "GetBlobReq", 13: "GetBlobResp",
		14: "StatsReq", 15: "StatsResp",
		16: "ListBlobsReq", 17: "ListBlobsResp",
		18: "DerefChunksReq", 19: "DerefChunksResp",
		20: "DeleteBlobReq", 21: "DeleteBlobResp",
		22: "ChallengeReq", 23: "ChallengeResp",
		24: "MetricsReq", 25: "MetricsResp",
		26: "CheckFileReq", 27: "CheckFileResp",
		28: "RegisterFileReq", 29: "RegisterFileResp",
		30: "HasChunksReq", 31: "HasChunksResp",
		32: "RefChunksReq", 33: "RefChunksResp",
	}
	// The requests a second delivery can hurt; every other request
	// must be freely replayable, so a new request type has to be
	// classified here before it can be anything else.
	hurtByReplay := map[MsgType]RetryClass{
		MsgPutChunksReq: ResendByRouter, MsgRefChunksReq: ResendByRouter, // over-retain
		MsgDerefChunksReq: NeverReplay, MsgDeleteBlobReq: NeverReplay, // lose data, or success turns not-found
	}
	if len(msgTypes) != len(wire)+1 {
		t.Fatalf("table has %d slots, want %d pinned types plus the unused zero slot", len(msgTypes), len(wire))
	}
	for typ, name := range wire {
		if got := typ.String(); got != name {
			t.Errorf("MsgType(%d) = %q, want %q", typ, got, name)
		}
		op, isReq := strings.CutSuffix(name, "Req")
		var want RetryClass // not a request: no class
		if isReq {
			want = ReplayByTransport
			if c, ok := hurtByReplay[typ]; ok {
				want = c
			}
		}
		if class := typ.Retry(); class != want {
			t.Errorf("%s has retry class %d, want %d", name, class, want)
		}
		if isReq && typ.Response().String() != op+"Resp" {
			t.Errorf("%s is answered by %v at typ+1, want %sResp", name, typ.Response(), op)
		}
	}
	if class := MsgType(200).Retry(); class != 0 {
		t.Errorf("unknown type has retry class %d, want 0", class)
	}
}

func TestMsgTypeStringAllocFree(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { _ = MsgPutChunksReq.String() }); n != 0 {
		t.Fatalf("String allocates %v times per call for named types", n)
	}
}

func TestListBlobsRoundTrip(t *testing.T) {
	ns, err := DecodeListBlobsReq(EncodeListBlobsReq("recipes"))
	if err != nil || ns != "recipes" {
		t.Fatalf("ListBlobsReq round trip = %q, %v", ns, err)
	}
	names, err := DecodeListBlobsResp(EncodeListBlobsResp([]string{"/a", "/b"}))
	if err != nil || len(names) != 2 || names[0] != "/a" || names[1] != "/b" {
		t.Fatalf("ListBlobsResp round trip = %v, %v", names, err)
	}
	// Empty listing.
	names, err = DecodeListBlobsResp(EncodeListBlobsResp(nil))
	if err != nil || len(names) != 0 {
		t.Fatalf("empty listing = %v, %v", names, err)
	}
}

func TestListBlobsDecodeErrors(t *testing.T) {
	if _, err := DecodeListBlobsReq(nil); err == nil {
		t.Fatal("empty req accepted")
	}
	if _, err := DecodeListBlobsReq(append(EncodeListBlobsReq("x"), 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := DecodeListBlobsResp([]byte{0xFF}); err == nil {
		t.Fatal("garbage resp accepted")
	}
}
