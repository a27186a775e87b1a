package chunker

import (
	"fmt"
	"io"
	"math/bits"
	"sync"
)

// windowSize is the length of the rolling-hash window in bytes. 48 bytes
// is the window size used by the Rabin chunkers in LBFS-style systems.
const windowSize = 48

// defaultPolynomial is an irreducible polynomial of degree 53 over GF(2),
// the same default used by several production deduplication systems.
const defaultPolynomial = 0x3DA3358B4DC173

// Rabin is a content-defined chunker using Rabin fingerprinting by random
// polynomials. Chunk boundaries are declared where the rolling hash over
// the trailing window matches a mask derived from the average chunk size,
// subject to the configured minimum and maximum sizes. Because boundaries
// depend only on local content, an insertion or deletion early in a stream
// re-aligns within a few chunks, preserving deduplication downstream.
type Rabin struct {
	r    io.Reader
	opts Options

	tables *rabinTables
	mask   uint64

	// buf[off:end] is the unconsumed stream. Next tops it up to MaxSize
	// bytes (or to the end of the stream) and scans it where it lies, so
	// a chunk is a sub-slice of buf and no byte is moved to find a cut.
	buf      []byte
	off, end int
	eof      bool
}

// rabinTables holds the precomputed lookup tables for one polynomial.
type rabinTables struct {
	out   [256]uint64
	mod   [256]uint64
	shift uint // deg(poly) - 8
}

// NewRabin returns a variable-size chunker reading from r.
func NewRabin(r io.Reader, opts Options) (*Rabin, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	tables, err := tablesFor(opts.Polynomial)
	if err != nil {
		return nil, err
	}
	return &Rabin{
		r:      r,
		opts:   opts,
		tables: tables,
		mask:   uint64(opts.AvgSize) - 1,
		// Four chunks' worth: the unconsumed tail (under MaxSize bytes)
		// moves to the front once per three chunks' worth consumed.
		buf: make([]byte, 4*opts.MaxSize),
	}, nil
}

var _ Chunker = (*Rabin)(nil)

// Next returns the next chunk. It returns io.EOF once the stream is
// exhausted. The returned slice is only valid until the next call.
func (c *Rabin) Next() ([]byte, error) {
	if err := c.fill(); err != nil {
		return nil, err
	}
	data := c.buf[c.off:c.end]
	if len(data) == 0 {
		return nil, io.EOF
	}
	if len(data) > c.opts.MaxSize {
		data = data[:c.opts.MaxSize]
	}
	chunk := data[:c.cut(data)]
	c.off += len(chunk)
	return chunk, nil
}

// fill reads until MaxSize unconsumed bytes are buffered or the stream
// ends, so cut always sees every byte that can belong to the next chunk.
func (c *Rabin) fill() error {
	if c.end-c.off >= c.opts.MaxSize || c.eof {
		return nil
	}
	c.end = copy(c.buf, c.buf[c.off:c.end])
	c.off = 0
	for c.end < c.opts.MaxSize {
		n, err := c.r.Read(c.buf[c.end:])
		if err == io.EOF {
			c.end += n
			c.eof = true
			return nil
		}
		if err != nil {
			return fmt.Errorf("chunker: read: %w", err)
		}
		c.end += n
	}
	return nil
}

// cut returns the length of the chunk that begins at data[0], where data
// is the next MaxSize bytes of the stream or all that is left of it.
//
// The digest at any position 48 or more bytes into a chunk is a function
// of the trailing window alone — the bytes before it have been slid out,
// and a window that starts out all zero contributes nothing to a
// polynomial hash — so no cut is tested before MinSize, hashing starts
// one window short of it, and the byte leaving the window is read back
// from data.
func (c *Rabin) cut(data []byte) int {
	minSize := c.opts.MinSize
	if len(data) <= minSize {
		return len(data)
	}
	t, mask := c.tables, c.mask
	a := t.window(data[minSize-windowSize : minSize])
	if a&mask == mask {
		return minSize
	}
	pos := minSize

	// One digest is a chain of dependent loads (xor, shift, table load,
	// xor), so the loop is bound by latency, not by work. Two adjacent
	// blocks are scanned in one loop, each with its own digest: lane a
	// carries on from where the scan stands, lane b starts from the
	// window just before the second block. A match in a is the earlier
	// one and ends the scan; a match in b counts only if a finds none.
	for len(data)-pos >= 2*laneBytes {
		mid := pos + laneBytes
		b := t.window(data[mid-windowSize : mid])
		inA, leavingA := data[pos:mid], data[pos-windowSize:][:laneBytes]
		inB, leavingB := data[mid:][:laneBytes], data[mid-windowSize:][:laneBytes]
		cutB := 0
		for i := range inA {
			a = t.appendByte(a^t.out[leavingA[i]], inA[i])
			b = t.appendByte(b^t.out[leavingB[i]], inB[i])
			if a&mask == mask {
				return pos + i + 1
			}
			if b&mask == mask && cutB == 0 {
				cutB = mid + i + 1
			}
		}
		if cutB != 0 {
			return cutB
		}
		a, pos = b, mid+laneBytes
	}

	in := data[pos:]
	leaving := data[pos-windowSize:][:len(in)]
	for i, x := range in {
		a = t.appendByte(a^t.out[leaving[i]], x)
		if a&mask == mask {
			return pos + i + 1
		}
	}
	return len(data)
}

// laneBytes is the block each of cut's two digests scans per round: long
// enough that starting lane b's window (48 bytes hashed for nothing) is
// a few percent, short enough that the block lane b scans past an early
// match in lane a is small against the chunk.
const laneBytes = 1024

// window returns the digest of one full window, w, hashed from zero.
func (t *rabinTables) window(w []byte) uint64 {
	var digest uint64
	for _, b := range w {
		digest = t.appendByte(digest, b)
	}
	return digest
}

// appendByte feeds one byte into the rolling hash.
func (t *rabinTables) appendByte(digest uint64, b byte) uint64 {
	index := digest >> t.shift
	digest <<= 8
	digest |= uint64(b)
	digest ^= t.mod[index&0xff]
	return digest
}

// tableCache holds the tables of every polynomial used so far: building
// them costs about 12 000 polyMod loops, and every upload opens a
// chunker on the same polynomial.
var tableCache = struct {
	sync.Mutex
	byPoly map[uint64]*rabinTables
}{byPoly: make(map[uint64]*rabinTables)}

// tablesFor returns the (shared, read-only) tables for poly.
func tablesFor(poly uint64) (*rabinTables, error) {
	tableCache.Lock()
	defer tableCache.Unlock()
	if t, ok := tableCache.byPoly[poly]; ok {
		return t, nil
	}
	t, err := buildTables(poly)
	if err != nil {
		return nil, err
	}
	tableCache.byPoly[poly] = t
	return t, nil
}

// buildTables precomputes the slide-out and mod-reduction tables for poly.
func buildTables(poly uint64) (*rabinTables, error) {
	d := polyDeg(poly)
	if d < 8 || d > 63 {
		return nil, fmt.Errorf("chunker: polynomial degree %d outside [8, 63]", d)
	}
	t := &rabinTables{shift: uint(d - 8)}

	// out[b] = hash of (b || 0^(windowSize-1)): XOR-ing it removes the
	// contribution of the byte leaving the window.
	for b := 0; b < 256; b++ {
		var h uint64
		h = appendByteSlow(h, byte(b), poly)
		for i := 0; i < windowSize-1; i++ {
			h = appendByteSlow(h, 0, poly)
		}
		t.out[b] = h
	}

	// mod[b] = (b(x)*x^d mod poly) | (b(x) << d): reduces the top byte
	// after an 8-bit shift in a single XOR.
	for b := 0; b < 256; b++ {
		t.mod[b] = polyMod(uint64(b)<<uint(d), poly) | uint64(b)<<uint(d)
	}
	return t, nil
}

// appendByteSlow feeds one byte using explicit polynomial arithmetic; used
// only for table construction.
func appendByteSlow(digest uint64, b byte, poly uint64) uint64 {
	for i := 7; i >= 0; i-- {
		digest <<= 1
		digest |= uint64(b>>uint(i)) & 1
		digest = polyMod(digest, poly)
	}
	return digest
}

// polyMod reduces p modulo q in GF(2)[x].
func polyMod(p, q uint64) uint64 {
	dq := polyDeg(q)
	for dp := polyDeg(p); dp >= dq; dp = polyDeg(p) {
		p ^= q << uint(dp-dq)
	}
	return p
}

// polyDeg returns the degree of p, or -1 for the zero polynomial.
func polyDeg(p uint64) int {
	return bits.Len64(p) - 1
}
