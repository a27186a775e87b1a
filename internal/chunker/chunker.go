// Package chunker divides a data stream into chunks for deduplication.
//
// Two schemes are provided, matching the REED prototype: fixed-size
// chunking and content-defined variable-size chunking based on Rabin
// fingerprinting by random polynomials. The variable-size chunker honors
// minimum, maximum, and average chunk size parameters; the paper's
// defaults are 2 KB minimum, 16 KB maximum, and an 8 KB average.
//
// Where Rabin cuts is an at-rest format: every stored chunk is named by
// the hash of its bytes, so a boundary that moves ends deduplication
// against everything stored before. testdata/*.cuts pins the cut offsets
// of seeded streams (go test -update rewrites them, deliberately), and
// the scan in rabin.go — in place over a MaxSize look-ahead, no byte
// hashed before MinSize less one window, two digests per loop — is held
// to the byte-at-a-time loop it replaced (rabin_ref_test.go) by a
// differential test and FuzzRabinMatchesReference. Lookup tables are
// built once per polynomial and shared.
package chunker

import (
	"errors"
	"fmt"
	"io"
)

// Paper defaults (Section V-A).
const (
	DefaultMinSize = 2 * 1024
	DefaultMaxSize = 16 * 1024
	DefaultAvgSize = 8 * 1024
)

// Chunker produces successive chunks from an underlying stream. Next
// returns io.EOF after the final chunk has been returned. The returned
// slice is only valid until the following call to Next.
type Chunker interface {
	Next() ([]byte, error)
}

// Options configures a variable-size chunker.
type Options struct {
	// MinSize is the minimum chunk size in bytes. Defaults to 2 KB.
	MinSize int
	// MaxSize is the maximum chunk size in bytes. Defaults to 16 KB.
	MaxSize int
	// AvgSize is the target average chunk size in bytes; it must be a
	// power of two between MinSize and MaxSize. Defaults to 8 KB.
	AvgSize int
	// Polynomial is the irreducible polynomial over GF(2) used by the
	// Rabin rolling hash. Zero selects a well-known degree-53 default.
	Polynomial uint64
}

func (o Options) withDefaults() Options {
	if o.MinSize == 0 {
		o.MinSize = DefaultMinSize
	}
	if o.MaxSize == 0 {
		o.MaxSize = DefaultMaxSize
	}
	if o.AvgSize == 0 {
		o.AvgSize = DefaultAvgSize
	}
	if o.Polynomial == 0 {
		o.Polynomial = defaultPolynomial
	}
	return o
}

func (o Options) validate() error {
	if o.MinSize <= 0 || o.MaxSize <= 0 || o.AvgSize <= 0 {
		return errors.New("chunker: sizes must be positive")
	}
	if o.MinSize > o.MaxSize {
		return fmt.Errorf("chunker: min size %d exceeds max size %d", o.MinSize, o.MaxSize)
	}
	if o.AvgSize&(o.AvgSize-1) != 0 {
		return fmt.Errorf("chunker: avg size %d is not a power of two", o.AvgSize)
	}
	if o.AvgSize < o.MinSize || o.AvgSize > o.MaxSize {
		return fmt.Errorf("chunker: avg size %d outside [%d, %d]", o.AvgSize, o.MinSize, o.MaxSize)
	}
	if o.MinSize < windowSize {
		return fmt.Errorf("chunker: min size %d smaller than rolling window %d", o.MinSize, windowSize)
	}
	return nil
}

// Split is a convenience helper that chunks an in-memory buffer with the
// given options and returns the chunk boundaries as sub-slices of data.
func Split(data []byte, opts Options) ([][]byte, error) {
	c, err := NewRabin(newBytesReader(data), opts)
	if err != nil {
		return nil, err
	}
	var out [][]byte
	var off int
	for {
		chunk, err := c.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		// Reference the original buffer instead of copying.
		out = append(out, data[off:off+len(chunk)])
		off += len(chunk)
	}
}

// SplitFixed divides data into fixed-size chunks; the final chunk may be
// shorter. size must be positive.
func SplitFixed(data []byte, size int) ([][]byte, error) {
	if size <= 0 {
		return nil, errors.New("chunker: fixed size must be positive")
	}
	var out [][]byte
	for off := 0; off < len(data); off += size {
		end := off + size
		if end > len(data) {
			end = len(data)
		}
		out = append(out, data[off:end])
	}
	return out, nil
}

// bytesReader is a minimal io.Reader over a byte slice that avoids pulling
// in bytes.Reader's extra state.
type bytesReader struct {
	data []byte
	off  int
}

func newBytesReader(data []byte) *bytesReader { return &bytesReader{data: data} }

func (r *bytesReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}
