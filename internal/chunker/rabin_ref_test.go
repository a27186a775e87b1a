package chunker

import (
	"fmt"
	"io"
)

// refRabin is the byte-at-a-time chunker Rabin replaced, kept as the
// reference the in-place scan is tested against: it appends every byte
// to the pending chunk, carries the 48-byte window in a ring, and hashes
// from the first byte of every chunk.
type refRabin struct {
	r    io.Reader
	opts Options

	tables *rabinTables
	mask   uint64

	buf     []byte
	bufLen  int
	bufOff  int
	pending []byte
	eof     bool
}

func newRefRabin(r io.Reader, opts Options) (*refRabin, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	tables, err := tablesFor(opts.Polynomial)
	if err != nil {
		return nil, err
	}
	return &refRabin{
		r:      r,
		opts:   opts,
		tables: tables,
		mask:   uint64(opts.AvgSize) - 1,
		buf:    make([]byte, 64*1024),
	}, nil
}

func (c *refRabin) Next() ([]byte, error) {
	c.pending = c.pending[:0]

	var (
		digest uint64
		window [windowSize]byte
		wpos   int
	)

	for {
		if c.bufOff == c.bufLen {
			if c.eof {
				if len(c.pending) == 0 {
					return nil, io.EOF
				}
				return c.pending, nil
			}
			n, err := c.r.Read(c.buf)
			c.bufLen, c.bufOff = n, 0
			if err == io.EOF {
				c.eof = true
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("chunker: read: %w", err)
			}
			if n == 0 {
				continue
			}
		}

		b := c.buf[c.bufOff]
		c.bufOff++
		c.pending = append(c.pending, b)

		out := window[wpos]
		window[wpos] = b
		wpos++
		if wpos == windowSize {
			wpos = 0
		}
		digest ^= c.tables.out[out]
		digest = c.tables.appendByte(digest, b)

		n := len(c.pending)
		if n >= c.opts.MaxSize {
			return c.pending, nil
		}
		if n >= c.opts.MinSize && digest&c.mask == c.mask {
			return c.pending, nil
		}
	}
}
