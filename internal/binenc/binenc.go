// Package binenc provides a small, explicit binary encoding used by REED's
// persistent formats (recipes, key states, ABE ciphertexts, trace
// snapshots) and its wire protocol.
//
// The format is deliberately simple: fixed-width big-endian integers and
// uvarint-length-prefixed byte strings. Every Reader method reports
// malformed input as an error instead of panicking, so untrusted bytes
// (anything arriving from the network or the storage backend) can be
// decoded safely.
package binenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrTruncated is returned when the input ends before a value completes.
var ErrTruncated = errors.New("binenc: truncated input")

// maxBytesLen caps a single length-prefixed byte string (64 MiB) so a
// corrupt length cannot trigger a huge allocation.
const maxBytesLen = 64 << 20

// Writer accumulates an encoded message. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the given initial capacity.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded message. The slice aliases the Writer's
// internal buffer; it is valid until the next Write call.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of encoded bytes so far.
func (w *Writer) Len() int { return len(w.buf) }

// Uint8 appends a single byte.
func (w *Writer) Uint8(v uint8) { w.buf = append(w.buf, v) }

// Uint32 appends a big-endian 32-bit integer.
func (w *Writer) Uint32(v uint32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}

// Uint64 appends a big-endian 64-bit integer.
func (w *Writer) Uint64(v uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

// Uvarint appends a varint-encoded unsigned integer.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.Uint8(1)
	} else {
		w.Uint8(0)
	}
}

// Bytes appends a uvarint length prefix followed by b.
func (w *Writer) WriteBytes(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a uvarint length prefix followed by the string bytes.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Raw appends b with no length prefix (for fixed-size fields).
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Reader decodes a message produced by Writer.
type Reader struct {
	buf []byte
	off int
}

// NewReader returns a Reader over buf. The Reader does not copy buf;
// byte-string reads alias it.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Done reports whether the entire input has been consumed; decoding
// routines should check it to reject trailing garbage.
func (r *Reader) Done() bool { return r.off == len(r.buf) }

// Uint8 reads one byte.
func (r *Reader) Uint8() (uint8, error) {
	if r.Remaining() < 1 {
		return 0, ErrTruncated
	}
	v := r.buf[r.off]
	r.off++
	return v, nil
}

// Uint32 reads a big-endian 32-bit integer.
func (r *Reader) Uint32() (uint32, error) {
	if r.Remaining() < 4 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

// Uint64 reads a big-endian 64-bit integer.
func (r *Reader) Uint64() (uint64, error) {
	if r.Remaining() < 8 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

// Uvarint reads a varint-encoded unsigned integer. Only the shortest
// encoding is accepted — the one Writer.Uvarint produces — so every
// decoded message re-encodes to the bytes it came from.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	if n > 1 && r.buf[r.off+n-1] == 0 {
		return 0, fmt.Errorf("binenc: varint padded to %d bytes", n)
	}
	r.off += n
	return v, nil
}

// Bool reads a boolean.
func (r *Reader) Bool() (bool, error) {
	v, err := r.Uint8()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("binenc: invalid bool byte %#x", v)
	}
}

// ReadBytes reads a uvarint length prefix and the following bytes. The
// returned slice aliases the Reader's buffer.
func (r *Reader) ReadBytes() ([]byte, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxBytesLen {
		return nil, fmt.Errorf("binenc: byte string length %d exceeds limit", n)
	}
	if uint64(r.Remaining()) < n {
		return nil, ErrTruncated
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

// ReadBytesCopy is ReadBytes but returns a copy that does not alias the
// input buffer.
func (r *Reader) ReadBytesCopy() ([]byte, error) {
	b, err := r.ReadBytes()
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), b...), nil
}

// ReadString reads a uvarint length prefix and the following string.
func (r *Reader) ReadString() (string, error) {
	b, err := r.ReadBytes()
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// ReadRaw reads exactly n bytes with no length prefix. The returned slice
// aliases the Reader's buffer.
func (r *Reader) ReadRaw(n int) ([]byte, error) {
	if n < 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("binenc: invalid raw length %d", n)
	}
	if r.Remaining() < n {
		return nil, ErrTruncated
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}
