package rpcmux

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/proto"
)

// discardConn is a net.Conn whose writes vanish: it isolates the frame
// assembly cost from any real socket.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) Read(p []byte) (int, error)       { select {} }
func (discardConn) Close() error                     { return nil }
func (discardConn) SetDeadline(time.Time) error      { return nil }
func (discardConn) SetReadDeadline(time.Time) error  { return nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// TestWriteFrameZeroAlloc asserts the mux's small-frame write path does
// not allocate in steady state: the assembly buffer is the Conn's wbuf
// and the header/payload coalesce into one Write.
func TestWriteFrameZeroAlloc(t *testing.T) {
	c := &Conn{conn: discardConn{}, smallFrame: 64 << 10}
	payload := bytes.Repeat([]byte("q"), 8<<10)

	// Grow wbuf so the measured runs hit the steady state.
	for i := 0; i < 4; i++ {
		if err := c.writeFrame(proto.MsgPutChunksReq, uint64(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := c.writeFrame(proto.MsgPutChunksReq, 5, payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("small-frame write allocates %v per run, want 0", n)
	}
}

// TestWriteFrameLargeUsesVectoredPath checks large frames bypass the
// small-frame copy and still produce a well-formed frame, and that
// reusing wbuf across small frames leaks no byte of one frame into the
// next: a long small frame then a short one, and a frame of exactly
// smallFrame bytes then one a byte over, all on one Conn.
func TestWriteFrameLargeUsesVectoredPath(t *testing.T) {
	const smallFrame = 64 << 10
	var sink bytes.Buffer
	c := &Conn{conn: captureConn{w: &sink}, smallFrame: smallFrame}
	payloads := [][]byte{
		bytes.Repeat([]byte("L"), 256<<10),
		bytes.Repeat([]byte("l"), 40<<10),
		[]byte("short"),
		bytes.Repeat([]byte("e"), smallFrame-proto.FrameHeaderSize),
		bytes.Repeat([]byte("o"), smallFrame-proto.FrameHeaderSize+1),
		[]byte("s"),
	}
	for i, p := range payloads {
		if err := c.writeFrame(proto.MsgGetChunksResp, uint64(i), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range payloads {
		typ, id, body, err := proto.ReadFrame(&sink)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != proto.MsgGetChunksResp || id != uint64(i) || !bytes.Equal(body, p) {
			t.Fatalf("frame %d (%d-byte payload): round trip mismatch", i, len(p))
		}
	}
	if sink.Len() != 0 {
		t.Fatalf("%d trailing bytes after the last frame", sink.Len())
	}
}

type captureConn struct {
	net.Conn
	w *bytes.Buffer
}

func (c captureConn) Write(p []byte) (int, error)    { return c.w.Write(p) }
func (captureConn) Close() error                     { return nil }
func (captureConn) SetDeadline(time.Time) error      { return nil }
func (captureConn) SetReadDeadline(time.Time) error  { return nil }
func (captureConn) SetWriteDeadline(time.Time) error { return nil }
