// Package wal implements REED's write-ahead logging over a
// store.Backend: Log, a sequence of immutable segment blobs, and
// Journal (journal.go), the one WAL + checkpoint lifecycle that hosts
// both of the storage server's durable indexes — the dedup index and
// the whole-file index — as wal.State implementations. Nothing outside
// this package appends, replays or truncates a Log directly.
//
// Each segment is one atomic backend Put holding a batch of records,
// each framed as [length u32 | CRC-32 u32 | payload]. Segment names
// are the prefix plus a 16-hex-digit sequence number, so a sorted
// List enumerates them in append order.
//
// Recovery semantics follow physical journaling practice: a torn or
// corrupt record terminates decoding of that segment (ErrTorn), and a
// tear is tolerated only on the final segment — the one a crash could
// have interrupted. Because the segment Put is the commit point (an
// Append whose Put tore was never acknowledged), a torn final segment
// is discarded whole rather than replayed up to the tear, which keeps
// multi-record batches atomic. Damage anywhere earlier, or a gap in
// the sequence numbers, is real corruption and fails the replay loudly
// rather than silently dropping acknowledged writes. (On backends with
// atomic Put, e.g. this repo's disk backend, whole segments are the
// torn unit; the per-record framing additionally catches backends or
// filesystems that tear writes mid-blob.)
package wal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/store"
)

// ErrTorn reports a segment that is truncated or corrupt — the state a
// crash mid-write could leave behind.
var ErrTorn = errors.New("wal: torn segment")

// recordHeader is the per-record frame: payload length + CRC-32.
const recordHeader = 8

// segmentTrailer seals a whole segment: body length + body CRC-32. The
// trailer is what makes tears detectable even when the truncation lands
// exactly on a record frame boundary — a prefix of frames decodes
// cleanly, but it cannot carry a valid trailer for the full body.
const segmentTrailer = 8

// maxRecordLen bounds a single record (matches binenc's sanity cap) so
// a corrupt length prefix cannot drive a giant allocation.
const maxRecordLen = 64 << 20

// AppendRecord frames payload onto buf and returns the extended slice.
func AppendRecord(buf, payload []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// sealSegment appends the whole-segment trailer to a run of framed
// records, producing the bytes Append writes to the backend.
func sealSegment(body []byte) []byte {
	seg := binary.BigEndian.AppendUint32(body, uint32(len(body)))
	return binary.BigEndian.AppendUint32(seg, crc32.ChecksumIEEE(seg))
}

// DecodeRecords validates a sealed segment and splits it into its
// framed payloads. Decoding is all-or-nothing: a segment whose trailer
// does not match (truncated, partially written, bit-flipped) yields no
// records and ErrTorn, because the segment's Put never completed and
// none of its records were acknowledged. A segment whose trailer IS
// valid but whose frames are malformed is not a tear — it is a writer
// bug or targeted corruption, reported as a non-ErrTorn error.
func DecodeRecords(seg []byte) ([][]byte, error) {
	if len(seg) < segmentTrailer {
		return nil, fmt.Errorf("%w: %d bytes, shorter than the trailer", ErrTorn, len(seg))
	}
	body := seg[:len(seg)-segmentTrailer]
	bodyLen := binary.BigEndian.Uint32(seg[len(seg)-8:])
	sum := binary.BigEndian.Uint32(seg[len(seg)-4:])
	if uint64(bodyLen) != uint64(len(body)) {
		return nil, fmt.Errorf("%w: trailer claims %d body bytes, have %d", ErrTorn, bodyLen, len(body))
	}
	if crc32.ChecksumIEEE(seg[:len(seg)-4]) != sum {
		return nil, fmt.Errorf("%w: segment checksum mismatch", ErrTorn)
	}

	var recs [][]byte
	for len(body) > 0 {
		if len(body) < recordHeader {
			return nil, fmt.Errorf("wal: %d trailing bytes inside a sealed segment", len(body))
		}
		n := binary.BigEndian.Uint32(body[0:4])
		recSum := binary.BigEndian.Uint32(body[4:8])
		if n > maxRecordLen || uint64(recordHeader)+uint64(n) > uint64(len(body)) {
			return nil, fmt.Errorf("wal: record of %d bytes with %d remaining inside a sealed segment", n, len(body)-recordHeader)
		}
		payload := body[recordHeader : recordHeader+n]
		if crc32.ChecksumIEEE(payload) != recSum {
			return nil, errors.New("wal: record checksum mismatch inside a sealed segment")
		}
		recs = append(recs, payload)
		body = body[recordHeader+n:]
	}
	return recs, nil
}

// Log is an append-only segment log in one backend namespace.
type Log struct {
	backend store.Backend
	ns      string
	prefix  string
	next    uint64
}

// segmentName formats the blob name for sequence number seq.
func (l *Log) segmentName(seq uint64) string {
	return fmt.Sprintf("%s%016x", l.prefix, seq)
}

// parseSegmentName inverts segmentName.
func (l *Log) parseSegmentName(name string) (uint64, bool) {
	if len(name) != len(l.prefix)+16 || name[:len(l.prefix)] != l.prefix {
		return 0, false
	}
	var seq uint64
	for _, c := range name[len(l.prefix):] {
		switch {
		case c >= '0' && c <= '9':
			seq = seq<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			seq = seq<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return seq, true
}

// Open scans ns for existing segments and positions the log to append
// after the highest one. Foreign blob names in the namespace are an
// error — the WAL owns its namespace.
func Open(ctx context.Context, backend store.Backend, ns, prefix string) (*Log, error) {
	l := &Log{backend: backend, ns: ns, prefix: prefix}
	names, err := backend.List(ctx, ns)
	if err != nil {
		return nil, fmt.Errorf("wal: list segments: %w", err)
	}
	for _, name := range names {
		seq, ok := l.parseSegmentName(name)
		if !ok {
			return nil, fmt.Errorf("wal: foreign blob %q in namespace %s", name, ns)
		}
		if seq+1 > l.next {
			l.next = seq + 1
		}
	}
	return l, nil
}

// Next returns the sequence number the next Append will use. It is
// also the exclusive upper bound of existing segments, which makes it
// the natural "WAL position" to record in a checkpoint.
func (l *Log) Next() uint64 { return l.next }

// Advance raises the append position to at least seq. A checkpoint
// that truncates every segment leaves the namespace empty, so a
// reopened log would otherwise restart numbering at zero — below the
// snapshot's replay position, making new segments invisible to the
// next recovery. Callers pass their checkpoint position here right
// after Open.
func (l *Log) Advance(seq uint64) {
	if seq > l.next {
		l.next = seq
	}
}

// Append seals one segment (a run of records framed with AppendRecord)
// and writes it as the next sequence number. The segment is durable
// when Append returns — the backend's atomic Put is the commit point.
func (l *Log) Append(ctx context.Context, body []byte) error {
	if err := l.backend.Put(ctx, l.ns, l.segmentName(l.next), sealSegment(body)); err != nil {
		return fmt.Errorf("wal: append segment %d: %w", l.next, err)
	}
	l.next++
	return nil
}

// Replay streams every record in segments [from, Next()) through fn in
// order. A missing segment in that window fails the replay; a torn
// final segment — the one a crash mid-Put could legally leave behind on
// a non-atomic backend — is tolerated but discarded WHOLE: the segment
// Put is the commit point, so a torn segment's Append never returned
// and none of its records were acknowledged, while applying a record
// prefix could split a multi-record batch that callers rely on being
// atomic. The discarded segment is then healed to an empty blob so the
// next recovery does not mistake it for mid-log corruption once later
// appends make it non-final.
func (l *Log) Replay(ctx context.Context, from uint64, fn func(rec []byte) error) error {
	for seq := from; seq < l.next; seq++ {
		seg, err := l.backend.Get(ctx, l.ns, l.segmentName(seq))
		if err != nil {
			return fmt.Errorf("wal: segment %d missing during replay: %w", seq, err)
		}
		recs, derr := DecodeRecords(seg)
		if derr != nil {
			if seq != l.next-1 || !errors.Is(derr, ErrTorn) {
				return fmt.Errorf("wal: segment %d corrupt during replay: %w", seq, derr)
			}
			if err := l.backend.Put(ctx, l.ns, l.segmentName(seq), sealSegment(nil)); err != nil {
				return fmt.Errorf("wal: heal torn segment %d: %w", seq, err)
			}
			return nil
		}
		for _, rec := range recs {
			if err := fn(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// TruncateBefore deletes every segment with sequence number < seq —
// the post-checkpoint cleanup. Deletion failures are returned but the
// log stays usable: stale segments below a checkpoint are ignored by
// the next Replay anyway.
func (l *Log) TruncateBefore(ctx context.Context, seq uint64) error {
	names, err := l.backend.List(ctx, l.ns)
	if err != nil {
		return fmt.Errorf("wal: list segments: %w", err)
	}
	var errs []error
	for _, name := range names {
		s, ok := l.parseSegmentName(name)
		if ok && s < seq {
			if err := l.backend.Delete(ctx, l.ns, name); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}
