// Package fingerprint computes and manipulates chunk fingerprints.
//
// A fingerprint is the SHA-256 digest of a chunk's content. Following the
// REED paper (and the compare-by-hash analysis it cites), two chunks are
// treated as identical if and only if their fingerprints are identical; the
// collision probability of SHA-256 is negligible for any realistic store.
package fingerprint

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Size is the length of a fingerprint in bytes.
const Size = sha256.Size

// Fingerprint identifies a chunk by the SHA-256 digest of its content.
type Fingerprint [Size]byte

// New computes the fingerprint of data: SumBatch of one message.
func New(data []byte) Fingerprint {
	var fp [1]Fingerprint
	SumBatch(fp[:], [][]byte{data}, nil)
	return fp[0]
}

// FromSlice converts a raw byte slice into a Fingerprint. It returns an
// error if the slice is not exactly Size bytes.
func FromSlice(b []byte) (Fingerprint, error) {
	var fp Fingerprint
	if len(b) != Size {
		return fp, fmt.Errorf("fingerprint: invalid length %d, want %d", len(b), Size)
	}
	copy(fp[:], b)
	return fp, nil
}

// Parse decodes a hex-encoded fingerprint as produced by String.
func Parse(s string) (Fingerprint, error) {
	var fp Fingerprint
	b, err := hex.DecodeString(s)
	if err != nil {
		return fp, fmt.Errorf("fingerprint: parse: %w", err)
	}
	return FromSlice(b)
}

// String returns the hex encoding of the fingerprint.
func (f Fingerprint) String() string {
	return hex.EncodeToString(f[:])
}

// Short returns the first eight hex characters, for logs.
func (f Fingerprint) Short() string {
	return hex.EncodeToString(f[:4])
}

// IsZero reports whether the fingerprint is the all-zero value.
func (f Fingerprint) IsZero() bool {
	return f == Fingerprint{}
}
