package rpcmux

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"testing"

	"repro/internal/proto"
)

// TestNilRegistryAddsNoAllocations pins the "disabled means free"
// contract: on an uninstrumented server the timed dispatch wrapper adds
// no allocation over calling the handler directly.
func TestNilRegistryAddsNoAllocations(t *testing.T) {
	reply := net.Buffers{[]byte("ok")}
	handle := func(_ context.Context, typ proto.MsgType, _ []byte) (proto.MsgType, net.Buffers) {
		return typ.Response(), reply
	}
	s := NewServer(1, 4096, nil, nil, func(net.Conn) Handler { return handle })
	if s.ops != nil || s.inflight != nil || s.connsGauge != nil {
		t.Fatal("a server without a registry must stay uninstrumented")
	}
	ctx := context.Background()
	payload := []byte("alloc-probe")
	direct := testing.AllocsPerRun(200, func() {
		handle(ctx, proto.MsgPutChunksReq, payload)
	})
	timed := testing.AllocsPerRun(200, func() {
		s.dispatch(ctx, handle, proto.MsgPutChunksReq, payload)
	})
	if timed > direct {
		t.Fatalf("dispatch allocates %.1f/op vs the handler's %.1f/op; a nil registry must add zero", timed, direct)
	}
}

// TestWriteReplyPaths: a reply frame that fits the write buffer is
// copied into it, and a larger one goes straight to the connection as
// one vectored write of its parts; both carry exactly the bytes
// WriteFrame writes for the concatenated payload.
func TestWriteReplyPaths(t *testing.T) {
	const bufSize = 4096
	for _, tc := range []struct {
		name     string
		partSize int
		buffered bool
	}{
		{"below the write buffer", 1000, true},
		{"above the write buffer", 3000, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parts := net.Buffers{bytes.Repeat([]byte{1}, tc.partSize), bytes.Repeat([]byte{2}, tc.partSize)}
			var want bytes.Buffer
			if err := proto.WriteFrame(&want, proto.MsgGetChunksResp, 77, bytes.Join(parts, nil)); err != nil {
				t.Fatal(err)
			}

			var buffered, direct bytes.Buffer
			bw := bufio.NewWriterSize(&buffered, bufSize)
			if err := writeReply(bw, &direct, outFrame{typ: proto.MsgGetChunksResp, id: 77, payload: parts}); err != nil {
				t.Fatal(err)
			}
			if err := bw.Flush(); err != nil {
				t.Fatal(err)
			}
			got, other := buffered.Bytes(), direct.Len()
			if !tc.buffered {
				got, other = direct.Bytes(), buffered.Len()
			}
			if other != 0 {
				t.Fatalf("reply of %d bytes took the wrong path (buffered = %v)", want.Len(), !tc.buffered)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatal("reply bytes differ from WriteFrame of the concatenated payload")
			}
		})
	}
}
