// Frame assembly without copying the payload.
//
// WriteFrame's two-Write shape is fine for a buffered writer, but the
// mux hot path wants a single syscall per small frame and no per-frame
// allocations in steady state. The helpers here let a caller assemble
// [header][payload] into a buffer it owns (AppendFrame, for small
// frames) or hand the header and the payload to a vectored write
// (WriteFrameVectored, for large ones) without copying the payload.
package proto

import (
	"encoding/binary"
	"io"
	"net"
)

// FrameHeaderSize is the number of bytes preceding a frame's payload on
// the wire: the 4-byte length prefix, the type byte, and the request ID.
const FrameHeaderSize = 4 + frameOverhead

// PutFrameHeader encodes a frame header for a payload of the given
// length into buf[:FrameHeaderSize]. buf must have at least
// FrameHeaderSize bytes; the payload itself is not touched, so callers
// can pair the header with the payload in a vectored write.
func PutFrameHeader(buf []byte, t MsgType, id uint64, payloadLen int) error {
	if payloadLen+frameOverhead > MaxFrameSize {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(payloadLen+frameOverhead))
	buf[4] = byte(t)
	binary.BigEndian.PutUint64(buf[5:FrameHeaderSize], id)
	return nil
}

// AppendFrame appends one complete frame to dst and returns the
// extended slice. When dst already has capacity this performs no
// allocation, so a reused buffer can batch header+payload into a single
// Write call.
func AppendFrame(dst []byte, t MsgType, id uint64, payload []byte) ([]byte, error) {
	if len(payload)+frameOverhead > MaxFrameSize {
		return dst, ErrFrameTooLarge
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)+frameOverhead))
	dst = append(dst, byte(t))
	dst = binary.BigEndian.AppendUint64(dst, id)
	return append(dst, payload...), nil
}

// WriteFrameVectored writes one frame, its payload the concatenation of
// the given parts, as a vectored write: the header and every part go out
// in writev(2) calls when w is a *net.TCPConn (net.Buffers falls back to
// sequential writes otherwise), so large payloads — or a reply gathered
// from many stored chunks — are never copied into an intermediate
// buffer.
func WriteFrameVectored(w io.Writer, t MsgType, id uint64, payload ...[]byte) error {
	var header [FrameHeaderSize]byte
	if err := PutFrameHeader(header[:], t, id, payloadSize(payload)); err != nil {
		return err
	}
	bufs := append(append(make(net.Buffers, 0, 1+len(payload)), header[:]), payload...)
	if _, err := bufs.WriteTo(w); err != nil {
		return err
	}
	return nil
}

// BlobListParts is EncodeBlobList as a gather list for WriteFrame or
// WriteFrameVectored: the same bytes, with every item referenced rather
// than copied. The count and the length prefixes live in one small
// fresh buffer; the items must not change until the parts are written.
func BlobListParts(items [][]byte) net.Buffers {
	prefixes := make([]byte, 0, binary.MaxVarintLen32*(len(items)+1))
	prefixes = binary.AppendUvarint(prefixes, uint64(len(items)))
	if len(items) == 0 {
		return net.Buffers{prefixes}
	}
	parts := make(net.Buffers, 0, 2*len(items))
	start := 0
	for _, it := range items {
		prefixes = binary.AppendUvarint(prefixes, uint64(len(it)))
		parts = append(parts, prefixes[start:], it)
		start = len(prefixes)
	}
	return parts
}
