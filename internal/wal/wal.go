// Package wal implements REED's write-ahead logging over a
// store.Backend: Log, a sequence of segment blobs that each commit
// appends to in place, and Journal (journal.go), the one WAL +
// checkpoint lifecycle that hosts the storage server's durable state —
// the dedup index, the whole-file index and the blob plane — as
// wal.State implementations. Nothing outside this package appends,
// replays or truncates a Log directly.
//
// A segment is a 4-byte magic followed by batches, one per commit.
// A batch is one frame whose payload is a run of record frames, and
// every frame is [length u32 | CRC-32 u32 | payload]:
//
//	segment := "\xffWAL" batch*
//	batch   := [body length u32 | body CRC-32 u32 | record*]
//	record  := [payload length u32 | payload CRC-32 u32 | payload]
//
// Append writes a batch at the end of the active segment with one
// Backend.WriteAt, so a commit costs the bytes it adds and one
// fdatasync. Segment names are the prefix plus a 16-hex-digit sequence
// number, so a sorted List enumerates them in append order. The active
// segment rolls to the next number at every checkpoint and once it
// holds several times the incoming batch (see rollBatches).
//
// Recovery accepts exactly one kind of damage: a torn last batch of the
// last segment, the one append a crash could have interrupted. It
// replays the whole batches before the tear and heals the tear by
// truncating the segment, so a multi-record batch is applied whole or
// not at all. Damage anywhere earlier, or a gap in the sequence
// numbers, is real corruption and fails the replay loudly rather than
// silently dropping acknowledged writes.
//
// Segments written before the in-place layout held one sealed batch
// each — the records followed by [body length u32 | CRC-32 u32] over
// everything before the CRC — and no magic. That layout is retired: an
// intact one fails replay with ErrRetiredLayout, which names the
// upgrade step (DESIGN §9).
package wal

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/store"
)

// ErrTorn reports a segment whose last batch is truncated or corrupt —
// the state a crash mid-append could leave behind.
var ErrTorn = errors.New("wal: torn segment")

// ErrRetiredLayout reports bytes at rest in a layout this build no
// longer reads: a sealed segment, or a snapshot older than its spec's
// version. The one way forward is the upgrade step it names, which
// rewrites every journal of a storage server in the current layout.
var ErrRetiredLayout = errors.New("retired at-rest layout: run reed-server from build 3a97d9a, the last that reads it, " +
	"on this store once and stop it with SIGTERM, which checkpoints every journal in the current layout")

// frameHeader is the header of every frame, record or batch: payload
// length + CRC-32.
const frameHeader = 8

// segmentMagic opens every segment in the in-place layout. Its first
// byte cannot open a sealed segment of the retired layout, which starts
// with a record length of at most maxRecordLen or an empty body's zero
// length.
const segmentMagic = "\xffWAL"

// maxRecordLen bounds a single record (matches binenc's sanity cap) so
// a corrupt length prefix cannot drive a giant allocation.
const maxRecordLen = 64 << 20

// Append starts a new segment once the active one holds rollBatches
// times the incoming batch, bounded to [minRollBytes, maxRollBytes].
// Both ends matter. On a backend whose WriteAt rewrites the blob
// (store.HTTP) an append costs the active segment plus its batch, so
// small commits, such as a rekey's key state, roll at 64 KiB and stay
// writes of tens of kilobytes there. On Disk a new segment costs a file
// creation and a directory fsync, several times an append's fdatasync,
// so large commits, such as a 128 KB stub file, share a segment with
// seven others. Either way an append rewrites at most 1 MiB besides its
// batch. A segment also rolls at every checkpoint.
const (
	rollBatches  = 8
	minRollBytes = 64 << 10
	maxRollBytes = 1 << 20
)

// AppendRecord frames payload onto buf and returns the extended slice.
func AppendRecord(buf, payload []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// decodeFrames splits a checksummed run of record frames into their
// payloads. The run's own checksum already matched, so a malformed
// frame here is a writer bug or targeted corruption, not a tear.
func decodeFrames(body []byte) ([][]byte, error) {
	var recs [][]byte
	for len(body) > 0 {
		if len(body) < frameHeader {
			return nil, fmt.Errorf("wal: %d trailing bytes inside a checksummed batch", len(body))
		}
		n := binary.BigEndian.Uint32(body[0:4])
		recSum := binary.BigEndian.Uint32(body[4:8])
		if n > maxRecordLen || uint64(frameHeader)+uint64(n) > uint64(len(body)) {
			return nil, fmt.Errorf("wal: record of %d bytes with %d remaining inside a checksummed batch", n, len(body)-frameHeader)
		}
		payload := body[frameHeader : frameHeader+n]
		if crc32.ChecksumIEEE(payload) != recSum {
			return nil, errors.New("wal: record checksum mismatch inside a checksummed batch")
		}
		recs = append(recs, payload)
		body = body[frameHeader+n:]
	}
	return recs, nil
}

// intactSealed reports whether seg is an intact segment of the retired
// layout: its trailer's length and CRC-32 match the bytes before them.
func intactSealed(seg []byte) bool {
	n := len(seg) - frameHeader
	return n >= 0 && uint64(binary.BigEndian.Uint32(seg[n:])) == uint64(n) &&
		crc32.ChecksumIEEE(seg[:n+4]) == binary.BigEndian.Uint32(seg[n+4:])
}

// DecodeSegment splits a segment into the records of its whole batches,
// in order, and returns how many leading bytes those batches and the
// magic span. An error wrapping ErrTorn means the segment ends in a torn
// batch: recs and valid still describe the whole batches before it. A
// batch is torn when its header is cut short, claims less than one
// record header or more bytes than the segment holds, or fails its
// checksum as the segment's last bytes or with only zeros after it: an
// append the crash cut after its file grew, whose length field did not
// all land. A later append cannot follow it there, since a batch's
// length is never zero. A segment that does not start
// with the magic holds no records: an empty one decodes without an
// error (Replay, which knows which segment is last, decides whether it
// is torn); an intact sealed segment fails with ErrRetiredLayout;
// anything else is a torn first append, with valid 0. So decoding the
// valid bytes of a torn segment yields its records and no error. A
// batch that fails its checksum with a nonzero byte after it is
// corruption, since a later append was made after it returned; so
// is a malformed record inside a batch whose checksum holds. Those are
// errors that do not wrap ErrTorn.
func DecodeSegment(seg []byte) (recs [][]byte, valid int, err error) {
	switch {
	case len(seg) == 0:
		return nil, 0, nil
	case bytes.HasPrefix(seg, []byte(segmentMagic)):
	case intactSealed(seg):
		return nil, 0, fmt.Errorf("wal: sealed segment of %d bytes: %w", len(seg), ErrRetiredLayout)
	default:
		return nil, 0, fmt.Errorf("%w: %d bytes without the segment magic", ErrTorn, len(seg))
	}
	for p := len(segmentMagic); p < len(seg); {
		rest := seg[p:]
		if len(rest) < frameHeader {
			return recs, p, fmt.Errorf("%w: %d-byte batch header at %d", ErrTorn, len(rest), p)
		}
		n := uint64(binary.BigEndian.Uint32(rest[0:4]))
		end := frameHeader + n
		if n < frameHeader || end > uint64(len(rest)) {
			return recs, p, fmt.Errorf("%w: batch at %d claims %d of %d bytes", ErrTorn, p, n, len(rest)-frameHeader)
		}
		body := rest[frameHeader:end]
		if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(rest[4:8]) {
			if len(bytes.TrimLeft(rest[end:], "\x00")) == 0 {
				return recs, p, fmt.Errorf("%w: last batch at %d fails its checksum", ErrTorn, p)
			}
			return nil, 0, fmt.Errorf("wal: batch at %d fails its checksum with %d bytes after it", p, uint64(len(rest))-end)
		}
		batch, err := decodeFrames(body)
		if err != nil {
			return nil, 0, fmt.Errorf("wal: batch at %d: %w", p, err)
		}
		recs = append(recs, batch...)
		p += int(end)
	}
	return recs, len(seg), nil
}

// Log is an append-only segment log in one backend namespace.
type Log struct {
	backend store.Backend
	ns      string
	prefix  string
	// seq is the active segment's sequence number and off its length,
	// the offset the next batch is written at: 0 while the segment does
	// not exist yet.
	seq uint64
	off int64
	// torn is set while the last append failed: the active segment may
	// hold bytes past off, which the next write must truncate before
	// the segment is ended.
	torn bool
}

// segmentName formats the blob name for sequence number seq: the
// prefix, then seq as 16 hex digits. Every Append names its segment, so
// this avoids fmt, whose printer pool makes the allocations of a commit
// vary from call to call.
func (l *Log) segmentName(seq uint64) string {
	const digits = "0123456789abcdef"
	var buf [64]byte
	b := append(buf[:0], l.prefix...)
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, digits[seq>>shift&15])
	}
	return string(b)
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
// to a new segment after the highest one: a log never appends to a
// segment it did not create. Foreign blob names in the namespace are an
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
		if seq+1 > l.seq {
			l.seq = seq + 1
		}
	}
	return l, nil
}

// Advance raises the active segment's number to at least seq. A
// checkpoint that truncates every segment leaves the namespace empty,
// so a reopened log would otherwise restart numbering at zero — below
// the snapshot's replay position, making new segments invisible to the
// next recovery. Callers pass their checkpoint position here right
// after Open.
func (l *Log) Advance(seq uint64) {
	if seq > l.seq {
		l.seq = seq
	}
}

// Append writes body (a run of records framed with AppendRecord) as one
// batch at the end of the active segment, starting a new segment first
// once the active one is large enough (see rollBatches). The batch is
// durable when Append returns — the backend's WriteAt is the commit
// point. A failed Append leaves the log where it was, so retrying
// writes at the same offset and overwrites whatever the failure left.
func (l *Log) Append(ctx context.Context, body []byte) error {
	if l.off >= min(max(rollBatches*int64(frameHeader+len(body)), minRollBytes), maxRollBytes) {
		if _, err := l.Roll(ctx); err != nil {
			return err
		}
	}
	var batch []byte
	if l.off == 0 {
		batch = append(batch, segmentMagic...)
	}
	batch = AppendRecord(batch, body)
	if err := l.backend.WriteAt(ctx, l.ns, l.segmentName(l.seq), l.off, batch); err != nil {
		l.torn = true
		return fmt.Errorf("wal: append to segment %d at %d: %w", l.seq, l.off, err)
	}
	l.off += int64(len(batch))
	l.torn = false
	return nil
}

// Roll ends the active segment, so the next Append starts a new one,
// and returns the new segment's number: every batch appended so far
// lies in a segment below it, which makes it the natural WAL position
// for a checkpoint to record. When the last append failed, Roll first
// truncates the segment to its whole batches, so only the last segment
// can ever end in a tear.
func (l *Log) Roll(ctx context.Context) (uint64, error) {
	if l.off == 0 {
		return l.seq, nil
	}
	if l.torn {
		if err := l.backend.WriteAt(ctx, l.ns, l.segmentName(l.seq), l.off, nil); err != nil {
			return 0, fmt.Errorf("wal: truncate segment %d at %d: %w", l.seq, l.off, err)
		}
		l.torn = false
	}
	l.seq++
	l.off = 0
	return l.seq, nil
}

// Replay streams every record of the segments from `from` up to the
// active one, in order; recovery calls it after Open and Advance,
// before the first Append. A missing segment in that window fails the
// replay. A torn last batch of the last segment — the append a crash
// could have interrupted, which never returned and so acknowledged
// nothing — is discarded whole, and the segment is healed by truncating
// it to its whole batches, so the next recovery does not mistake the
// tear for mid-log corruption once later segments exist. Any other
// damage, or a segment of the retired layout, fails the replay before
// anything is healed.
func (l *Log) Replay(ctx context.Context, from uint64, fn func(rec []byte) error) error {
	for seq := from; seq < l.seq; seq++ {
		name := l.segmentName(seq)
		seg, err := l.backend.Get(ctx, l.ns, name)
		if err != nil {
			return fmt.Errorf("wal: segment %d missing during replay: %w", seq, err)
		}
		recs, valid, derr := DecodeSegment(seg)
		if derr == nil && len(seg) == 0 {
			// Every segment the log appended to holds the magic: an
			// empty one is a first append torn before it.
			derr = fmt.Errorf("%w: empty segment", ErrTorn)
		}
		if derr != nil {
			if seq != l.seq-1 || !errors.Is(derr, ErrTorn) {
				return fmt.Errorf("wal: replay segment %d: %w", seq, derr)
			}
			// A segment without a whole batch becomes an empty segment
			// of the current layout.
			var heal []byte
			if valid == 0 {
				heal = []byte(segmentMagic)
			}
			if err := l.backend.WriteAt(ctx, l.ns, name, int64(valid), heal); err != nil {
				return fmt.Errorf("wal: heal torn segment %d: %w", seq, err)
			}
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
