// Package packfile implements REED's on-disk container format: a
// versioned, self-indexing blob holding many trimmed-package chunks.
//
// Layout (all integers big-endian):
//
//	+--------------------+
//	| header magic (8 B) |  "REEDPAK\x01"
//	+--------------------+
//	| chunk 0 bytes      |  raw chunk payloads, back to back,
//	| chunk 1 bytes      |  in index (= offset) order
//	| ...                |
//	+--------------------+
//	| index entry 0      |  48 B each:
//	| index entry 1      |    fingerprint (32 B)
//	| ...                |    body offset (u64)
//	|                    |    length      (u32)
//	|                    |    CRC-32      (u32, IEEE, over the chunk)
//	+--------------------+
//	| footer (32 B)      |  index offset (u64, from blob start)
//	|                    |  entry count  (u64)
//	|                    |  index CRC-32 (u32, over the raw index)
//	|                    |  version (u8) + 3 reserved bytes
//	|                    |  footer magic (8 B) "REEDPKF\x01"
//	+--------------------+
//
// The trailing fixed-size footer means a reader can locate the index
// with one suffix read (store.Backend.GetRange with off=-FooterSize)
// and fetch the index with a second ranged read — no whole-container
// copy. Offsets in entries are body-relative (chunk 0 is at offset 0),
// matching the dedup store's Location offsets.
//
// Decode never panics on hostile input: every offset, count, and
// checksum is validated before use, so truncation and corruption
// surface as errors (FuzzPackfileDecode holds the format to that).
package packfile

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/fingerprint"
	"repro/internal/store"
)

const (
	// Version is the current format version.
	Version = 1
	// HeaderSize is the fixed leading magic.
	HeaderSize = 8
	// EntrySize is one fixed-width index entry.
	EntrySize = fingerprint.Size + 16
	// FooterSize is the fixed trailing footer.
	FooterSize = 32
	// maxEntries bounds index allocation when decoding untrusted
	// blobs: a 4 MB container of 1-byte chunks cannot exceed this.
	maxEntries = 1 << 24
)

var (
	headerMagic = [8]byte{'R', 'E', 'E', 'D', 'P', 'A', 'K', 0x01}
	footerMagic = [8]byte{'R', 'E', 'E', 'D', 'P', 'K', 'F', 0x01}
)

// ErrCorrupt reports a structurally invalid or checksum-failing
// packfile. Truncation, bit flips, and bad magic all wrap it.
var ErrCorrupt = errors.New("packfile: corrupt")

// Entry is one chunk's index record. Offset is relative to the body
// (the first chunk is at offset 0).
type Entry struct {
	FP     fingerprint.Fingerprint
	Offset uint64
	Length uint32
	CRC    uint32
}

// Writer accumulates chunks and emits a finished packfile.
type Writer struct {
	buf     []byte
	entries []Entry
}

// NewWriter returns a Writer; bodyHint pre-sizes the buffer.
func NewWriter(bodyHint int) *Writer {
	return &Writer{buf: AppendHeader(make([]byte, 0, HeaderSize+bodyHint))}
}

// AppendHeader appends the HeaderSize bytes every packfile opens with.
func AppendHeader(buf []byte) []byte {
	return append(buf, headerMagic[:]...)
}

// Add appends one chunk and returns its body-relative offset.
func (w *Writer) Add(fp fingerprint.Fingerprint, data []byte) uint64 {
	off := uint64(len(w.buf) - HeaderSize)
	w.entries = append(w.entries, Entry{
		FP:     fp,
		Offset: off,
		Length: uint32(len(data)),
		CRC:    crc32.ChecksumIEEE(data),
	})
	w.buf = append(w.buf, data...)
	return off
}

// Count returns the number of chunks added so far.
func (w *Writer) Count() int { return len(w.entries) }

// Finish appends the index and footer and returns the complete blob.
// The Writer must not be reused afterwards.
func (w *Writer) Finish() []byte {
	w.buf = AppendIndex(w.buf, w.entries)
	return w.buf
}

// AppendIndex appends the index section for entries and the footer to
// buf, which must hold the packfile from its header on: the footer
// records len(buf) as the index offset. Entries are written in the
// order given, and the body between them may hold bytes no entry
// names. Writer.Finish and a store that builds the body in place
// share it, so both produce the same bytes.
func AppendIndex(buf []byte, entries []Entry) []byte {
	indexStart := len(buf)
	buf = slices.Grow(buf, len(entries)*EntrySize+FooterSize)
	for _, e := range entries {
		buf = append(buf, e.FP[:]...)
		buf = binary.BigEndian.AppendUint64(buf, e.Offset)
		buf = binary.BigEndian.AppendUint32(buf, e.Length)
		buf = binary.BigEndian.AppendUint32(buf, e.CRC)
	}
	indexCRC := crc32.ChecksumIEEE(buf[indexStart:])

	buf = binary.BigEndian.AppendUint64(buf, uint64(indexStart))
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(entries)))
	buf = binary.BigEndian.AppendUint32(buf, indexCRC)
	buf = append(buf, Version, 0, 0, 0)
	return append(buf, footerMagic[:]...)
}

// ParseFooter decodes the trailing FooterSize bytes of a packfile
// (e.g. a GetRange suffix read) into the index offset, entry count,
// and index checksum.
func ParseFooter(tail []byte) (indexOff, count uint64, indexCRC uint32, err error) {
	if len(tail) != FooterSize {
		return 0, 0, 0, fmt.Errorf("%w: footer is %d bytes, want %d", ErrCorrupt, len(tail), FooterSize)
	}
	if [8]byte(tail[24:32]) != footerMagic {
		return 0, 0, 0, fmt.Errorf("%w: bad footer magic", ErrCorrupt)
	}
	if v := tail[20]; v != Version {
		return 0, 0, 0, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	if tail[21] != 0 || tail[22] != 0 || tail[23] != 0 {
		return 0, 0, 0, fmt.Errorf("%w: nonzero reserved footer bytes", ErrCorrupt)
	}
	indexOff = binary.BigEndian.Uint64(tail[0:8])
	count = binary.BigEndian.Uint64(tail[8:16])
	indexCRC = binary.BigEndian.Uint32(tail[16:20])
	if count > maxEntries {
		return 0, 0, 0, fmt.Errorf("%w: implausible entry count %d", ErrCorrupt, count)
	}
	return indexOff, count, indexCRC, nil
}

// ParseIndex decodes and checksums a raw index section of count
// entries (e.g. fetched with a ranged read guided by ParseFooter).
func ParseIndex(index []byte, count uint64, indexCRC uint32) ([]Entry, error) {
	if uint64(len(index)) != count*EntrySize {
		return nil, fmt.Errorf("%w: index is %d bytes, want %d entries × %d",
			ErrCorrupt, len(index), count, EntrySize)
	}
	if crc32.ChecksumIEEE(index) != indexCRC {
		return nil, fmt.Errorf("%w: index checksum mismatch", ErrCorrupt)
	}
	entries := make([]Entry, count)
	for i := range entries {
		rec := index[i*EntrySize:]
		e := &entries[i]
		copy(e.FP[:], rec[:fingerprint.Size])
		e.Offset = binary.BigEndian.Uint64(rec[fingerprint.Size:])
		e.Length = binary.BigEndian.Uint32(rec[fingerprint.Size+8:])
		e.CRC = binary.BigEndian.Uint32(rec[fingerprint.Size+12:])
	}
	return entries, nil
}

// Decode validates a complete packfile blob and returns its index and
// body (body[e.Offset : e.Offset+e.Length] is chunk e). Every chunk's
// checksum is verified; any structural damage returns ErrCorrupt.
func Decode(blob []byte) ([]Entry, []byte, error) {
	if len(blob) < HeaderSize+FooterSize {
		return nil, nil, fmt.Errorf("%w: %d bytes is too short", ErrCorrupt, len(blob))
	}
	if [8]byte(blob[:8]) != headerMagic {
		return nil, nil, fmt.Errorf("%w: bad header magic", ErrCorrupt)
	}
	indexOff, count, indexCRC, err := ParseFooter(blob[len(blob)-FooterSize:])
	if err != nil {
		return nil, nil, err
	}
	indexEnd := uint64(len(blob) - FooterSize)
	if indexOff < HeaderSize || indexOff > indexEnd {
		return nil, nil, fmt.Errorf("%w: index offset %d outside blob", ErrCorrupt, indexOff)
	}
	entries, err := ParseIndex(blob[indexOff:indexEnd], count, indexCRC)
	if err != nil {
		return nil, nil, err
	}
	body := blob[HeaderSize:indexOff]
	bodyLen := uint64(len(body))
	for i, e := range entries {
		end := e.Offset + uint64(e.Length)
		if end < e.Offset || end > bodyLen {
			return nil, nil, fmt.Errorf("%w: entry %d [%d, %d) outside %d-byte body",
				ErrCorrupt, i, e.Offset, end, bodyLen)
		}
		if crc32.ChecksumIEEE(body[e.Offset:end]) != e.CRC {
			return nil, nil, fmt.Errorf("%w: chunk %s checksum mismatch", ErrCorrupt, e.FP.Short())
		}
	}
	return entries, body, nil
}

// ReadIndex fetches a packfile's index with two ranged reads — footer,
// then index section — without transferring the body. This is the read
// path recovery scrubbing uses to verify a container holds what the
// dedup index says it holds.
func ReadIndex(ctx context.Context, b store.Backend, ns, name string) ([]Entry, error) {
	tail, err := b.GetRange(ctx, ns, name, -FooterSize, FooterSize)
	if err != nil {
		return nil, fmt.Errorf("packfile: read footer of %s/%s: %w", ns, name, err)
	}
	indexOff, count, indexCRC, err := ParseFooter(tail)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", ns, name, err)
	}
	index, err := b.GetRange(ctx, ns, name, int64(indexOff), int64(count)*EntrySize)
	if err != nil {
		if errors.Is(err, store.ErrRange) {
			return nil, fmt.Errorf("%s/%s: %w: index outside blob: %v", ns, name, ErrCorrupt, err)
		}
		return nil, fmt.Errorf("packfile: read index of %s/%s: %w", ns, name, err)
	}
	entries, err := ParseIndex(index, count, indexCRC)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", ns, name, err)
	}
	return entries, nil
}
