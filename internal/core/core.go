// Package core implements REED's rekeying-aware chunk encryption — the
// primary contribution of the DSN'16 paper.
//
// Each chunk M is transformed, under its MLE key K_M, into a package that
// is split into two parts:
//
//   - the trimmed package: the large prefix, deterministic in (M, K_M),
//     which the server deduplicates; and
//   - the stub: the final StubSize bytes, which the client encrypts under
//     a renewable file key.
//
// Because the transform is all-or-nothing, an adversary holding the
// trimmed package but not the stub learns nothing about M. Rekeying a
// file therefore only requires re-encrypting its stubs.
//
// Two schemes are provided:
//
// Basic (Figure 2): CAONT keyed directly by K_M over (M || canary):
//
//	C = (M || c) XOR G(K_M)
//	t = K_M XOR H(C)
//
// The canary c (32 zero bytes) provides integrity: tampering anywhere in
// the package corrupts the recovered K_M and hence the canary. The basic
// scheme is vulnerable to MLE-key compromise: given K_M, the mask G(K_M)
// reveals the trimmed part of the chunk.
//
// Enhanced (Figure 3): MLE-encrypt first, then CAONT over (C1 || K_M)
// under the hash key h = H(C1 || K_M):
//
//	C1 = E(K_M, M)
//	C2 = (C1 || K_M) XOR G(h)
//	t  = SelfXOR(C2) XOR h
//
// Even with K_M leaked, the adversary cannot recover h without the entire
// package, so the chunk stays protected by the stub. The tail uses a
// cheap self-XOR instead of a second hash; integrity is checked by
// comparing H(C1 || K_M) with the recovered h.
//
// Reverting never rejoins the two parts. Every step of either revert —
// hash, self-XOR, CTR keystream — runs over the trimmed package and then
// on into the stub (the basic scheme's revert is aont.RevertBatch;
// fingerprint.SumBatch takes the stub's part as a suffix, and
// aont.SelfXORParts and aont.ApplyMaskParts run across the boundary),
// and the chunk is 64 bytes shorter than the package, so Open can write
// it over the trimmed package it is reading: a restore reverts each
// chunk inside the reply frame that carried it.
//
// Both schemes work on batches (EncryptBatch, OpenBatch): a batch's
// hashes are one fingerprint.SumBatch (for the basic scheme, inside
// aont.TransformBatch and aont.RevertBatch), which hashes sixteen chunks
// at a time where the CPU allows. Encrypt and Open are the batch of one.
package core

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"errors"
	"fmt"
	"slices"

	"repro/internal/aont"
	"repro/internal/fingerprint"
)

const (
	// KeySize is the MLE key size in bytes.
	KeySize = 32
	// CanarySize is the size of the integrity canary appended to chunks
	// in the basic scheme (32 zero bytes, per Section V-A).
	CanarySize = 32
	// DefaultStubSize is the stub size the paper uses: 64 bytes, i.e.
	// 0.78% of an 8 KB chunk.
	DefaultStubSize = 64
	// MinStubSize is the smallest stub that still withholds the entire
	// package tail from the server.
	MinStubSize = aont.TailSize
)

// Scheme selects a REED chunk encryption scheme.
type Scheme int

const (
	// SchemeBasic is the faster scheme of Section IV-B, vulnerable to
	// MLE-key leakage.
	SchemeBasic Scheme = iota + 1
	// SchemeEnhanced adds an MLE encryption layer so that a leaked MLE
	// key alone reveals nothing without the stub.
	SchemeEnhanced
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeBasic:
		return "basic"
	case SchemeEnhanced:
		return "enhanced"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Valid reports whether s names a known scheme.
func (s Scheme) Valid() bool {
	return s == SchemeBasic || s == SchemeEnhanced
}

var (
	// ErrIntegrity is returned when a reverted chunk fails its
	// integrity check (tampered trimmed package or stub).
	ErrIntegrity = errors.New("core: chunk integrity check failed")
	// ErrBadScheme is returned for an unknown Scheme value.
	ErrBadScheme = errors.New("core: unknown encryption scheme")
)

// Package is the output of encrypting one chunk: the deduplicable trimmed
// package and the plaintext stub. Stub encryption under the file key
// happens at the stub-file layer (internal/client), not here, because the
// paper batches all stubs of a file into one encrypted stub file.
type Package struct {
	Trimmed []byte
	Stub    []byte
}

// Codec encrypts and decrypts chunks under a fixed scheme and stub size.
// The zero value is not usable; use New.
type Codec struct {
	scheme   Scheme
	stubSize int
}

// Option configures a Codec.
type Option interface {
	apply(*Codec)
}

type stubSizeOption int

func (o stubSizeOption) apply(c *Codec) { c.stubSize = int(o) }

// WithStubSize overrides the stub size (default 64 bytes). Larger stubs
// increase rekeying and storage cost; smaller stubs weaken the brute-force
// margin on the withheld portion.
func WithStubSize(n int) Option { return stubSizeOption(n) }

// New returns a Codec for the given scheme.
func New(scheme Scheme, opts ...Option) (*Codec, error) {
	if !scheme.Valid() {
		return nil, ErrBadScheme
	}
	c := &Codec{scheme: scheme, stubSize: DefaultStubSize}
	for _, o := range opts {
		o.apply(c)
	}
	if c.stubSize < MinStubSize {
		return nil, fmt.Errorf("core: stub size %d below minimum %d", c.stubSize, MinStubSize)
	}
	return c, nil
}

// Scheme returns the codec's scheme.
func (c *Codec) Scheme() Scheme { return c.scheme }

// StubSize returns the configured stub size in bytes.
func (c *Codec) StubSize() int { return c.stubSize }

// PackageOverhead is the number of bytes a package adds over the chunk.
// Both schemes add CanarySize-or-KeySize plus the tail: 64 bytes.
const PackageOverhead = KeySize + aont.TailSize

// Encrypt transforms chunk under mleKey into a trimmed package and stub.
// The chunk must be non-empty and the MLE key exactly KeySize bytes. It
// is EncryptBatch of one chunk.
func (c *Codec) Encrypt(chunk, mleKey []byte) (Package, error) {
	var p [1]Package
	if err := c.EncryptBatch(p[:], [][]byte{chunk}, [][]byte{mleKey}); err != nil {
		return Package{}, unbatch(err)
	}
	return p[0], nil
}

// EncryptBatch transforms chunks[i] under mleKeys[i] into pkgs[i], for
// every i, as Encrypt does each, byte for byte: the scheme's hash runs
// over every chunk of the batch in one fingerprint.SumBatch, the other
// steps chunk by chunk. An error is a *ChunkError naming the first chunk
// that failed; pkgs is then unspecified.
func (c *Codec) EncryptBatch(pkgs []Package, chunks, mleKeys [][]byte) error {
	if len(pkgs) != len(chunks) || len(mleKeys) != len(chunks) {
		return errors.New("core: batch slices differ in length")
	}
	for i, chunk := range chunks {
		if len(chunk) == 0 {
			return &ChunkError{i, errors.New("core: empty chunk")}
		}
		if len(mleKeys[i]) != KeySize {
			return &ChunkError{i, fmt.Errorf("core: MLE key length %d, want %d", len(mleKeys[i]), KeySize)}
		}
		if n := len(chunk) + PackageOverhead; n < c.stubSize {
			return &ChunkError{i, fmt.Errorf("core: package size %d below stub size %d", n, c.stubSize)}
		}
	}
	full := make([][]byte, len(chunks))
	var err error
	switch c.scheme {
	case SchemeBasic:
		err = sealBasic(full, chunks, mleKeys)
	case SchemeEnhanced:
		err = sealEnhanced(full, chunks, mleKeys)
	default:
		return ErrBadScheme
	}
	if err != nil {
		return err
	}
	for i, pkg := range full {
		cut := len(pkg) - c.stubSize
		pkgs[i] = Package{Trimmed: pkg[:cut], Stub: pkg[cut:]}
	}
	return nil
}

// ChunkError names the chunk of a batch that failed and why.
type ChunkError struct {
	Index int
	Err   error
}

func (e *ChunkError) Error() string { return fmt.Sprintf("chunk %d: %v", e.Index, e.Err) }

func (e *ChunkError) Unwrap() error { return e.Err }

// unbatch turns a batch-of-one error back into the chunk's own error.
func unbatch(err error) error {
	var ce *ChunkError
	if errors.As(err, &ce) {
		return ce.Err
	}
	return err
}

// Decrypt reverts a package back to the chunk, verifying integrity, into
// a fresh buffer: it is Open(nil, p) and leaves p untouched. No key is
// needed: both schemes embed the key material in the package (protected
// by the all-or-nothing property), which is why REED never uploads MLE
// keys.
func (c *Codec) Decrypt(p Package) ([]byte, error) {
	return c.Open(nil, p)
}

// Open reverts p to its chunk, verifying integrity, appends the chunk to
// dst and returns the extended slice, with the dst contract of
// crypto/cipher.AEAD.Open. To revert in place, pass p.Trimmed[:0]: the
// chunk overwrites the trimmed package, and when the stub is longer than
// PackageOverhead it runs on into the capacity past p.Trimmed (a chunk
// that cannot fit there is appended to a new buffer instead). Any other
// dst must not overlap p in its remaining capacity. p.Stub is only read,
// unless it lies in that capacity. On error the bytes of dst up to its
// capacity are unspecified. It is OpenBatch of one package.
//
// The package is reverted as its two parts, trimmed package and stub,
// without rejoining them: the stub's last aont.TailSize bytes are the
// package tail, and the head before it runs on from p.Trimmed into the
// stub. A stub shorter than the tail is not a package of either scheme.
func (c *Codec) Open(dst []byte, p Package) ([]byte, error) {
	dsts := [1][]byte{dst}
	if err := c.OpenBatch(dsts[:], []Package{p}); err != nil {
		return nil, unbatch(err)
	}
	return dsts[0], nil
}

// OpenBatch reverts pkgs[i] as Open(dsts[i], pkgs[i]) does, for every i,
// and stores the extended slice in dsts[i]: each dsts[i] has Open's dst
// contract, and must not overlap any other package of the batch in its
// remaining capacity either. The integrity hashes run over every package
// in one fingerprint.SumBatch, the other steps package by package. An
// error is a *ChunkError naming the first package that failed (wrapping
// ErrIntegrity for a tampered one); the bytes of every dsts[i] up to its
// capacity are then unspecified.
func (c *Codec) OpenBatch(dsts [][]byte, pkgs []Package) error {
	if len(dsts) != len(pkgs) {
		return errors.New("core: batch slices differ in length")
	}
	outs := make([][]byte, len(pkgs))
	for i, p := range pkgs {
		n := len(p.Trimmed) + len(p.Stub) - PackageOverhead
		if len(p.Stub) < aont.TailSize || n < 0 {
			return &ChunkError{i, ErrIntegrity}
		}
		d := dsts[i]
		dsts[i] = slices.Grow(d, n)[:len(d)+n]
		outs[i] = dsts[i][len(d):]
	}
	switch c.scheme {
	case SchemeBasic:
		return openBasic(outs, pkgs)
	case SchemeEnhanced:
		return openEnhanced(outs, pkgs)
	default:
		return ErrBadScheme
	}
}

// wipeSums wipes hash keys with Wipe.
func wipeSums(sums []fingerprint.Fingerprint) {
	for i := range sums {
		Wipe(sums[i][:])
	}
}

// sealBasic implements Figure 2 with aont.TransformBatch, each package
// laid out as [M || canary || tail] up front and transformed in place,
// so the only copies are the chunk into the head and one AES-CTR pass:
// C = (M || c) XOR G(K_M), t = K_M XOR H(C).
func sealBasic(pkgs, chunks, mleKeys [][]byte) error {
	for i, chunk := range chunks {
		pkgs[i] = make([]byte, len(chunk)+CanarySize+aont.TailSize)
		copy(pkgs[i], chunk) // the canary bytes stay zero
	}
	if i, err := aont.TransformBatch(pkgs, mleKeys); err != nil {
		return &ChunkError{i, fmt.Errorf("core: basic transform: %w", err)}
	}
	return nil
}

// openBasic reverts Figure 2 into outs with aont.RevertBatch and checks
// each canary: the CAONT revert of the package trimmed || stub, with M
// going to out and the canary beside it.
func openBasic(outs [][]byte, pkgs []Package) error {
	keys := make([]byte, len(pkgs)*KeySize) //reed:secret — the recovered MLE keys; the canaries check them
	defer Wipe(keys)
	canaries := make([]byte, len(pkgs)*CanarySize)
	trimmed, stubs, rests := make([][]byte, len(pkgs)), make([][]byte, len(pkgs)), make([][]byte, len(pkgs))
	for i, p := range pkgs {
		trimmed[i], stubs[i] = p.Trimmed, p.Stub
		rests[i] = canaries[i*CanarySize : (i+1)*CanarySize]
	}
	if i, err := aont.RevertBatch(keys, outs, rests, trimmed, stubs); err != nil {
		return &ChunkError{i, fmt.Errorf("core: basic revert: %w", err)}
	}
	for i, canary := range rests {
		if [CanarySize]byte(canary) != [CanarySize]byte{} {
			return &ChunkError{i, ErrIntegrity}
		}
	}
	return nil
}

// sealEnhanced implements Figure 3, staging X = C1 || K_M directly in
// each package buffer so masking happens in place and nothing is copied
// twice. Every h = H(X) comes from one SumBatch.
func sealEnhanced(pkgs, chunks, mleKeys [][]byte) error {
	xs := make([][]byte, len(chunks))
	for i, chunk := range chunks {
		pkg := make([]byte, len(chunk)+KeySize+aont.TailSize)
		x := pkg[:len(chunk)+KeySize]
		// C1 = E(K_M, M): deterministic MLE encryption, straight into
		// the package head.
		if err := mleEncrypt(x[:len(chunk)], chunk, mleKeys[i]); err != nil {
			return &ChunkError{i, err}
		}
		copy(x[len(chunk):], mleKeys[i])
		pkgs[i], xs[i] = pkg, x
	}
	hs := make([]fingerprint.Fingerprint, len(chunks)) // the hash keys h
	defer wipeSums(hs)
	fingerprint.SumBatch(hs, xs, nil)
	for i, x := range xs {
		// C2 = X XOR G(h), in place; t = SelfXOR(C2) XOR h.
		if err := aont.ApplyMask(hs[i][:], x); err != nil {
			return &ChunkError{i, fmt.Errorf("core: enhanced mask: %w", err)}
		}
		tail := aont.SelfXOR(x)
		subtle.XORBytes(pkgs[i][len(x):], tail[:], hs[i][:])
	}
	return nil
}

// openEnhanced reverts Figure 3 into outs and checks H(C1 || K_M) == h.
// Each package is trimmed || stub: its head C2 runs on into the stub,
// whose last aont.TailSize bytes are the tail t. The checks of the whole
// batch are one SumBatch, with each K_M as its C1's suffix.
func openEnhanced(outs [][]byte, pkgs []Package) error {
	hs := make([]fingerprint.Fingerprint, len(pkgs)) // the recovered hash keys h
	defer wipeSums(hs)
	keys := make([]byte, len(pkgs)*KeySize) //reed:secret — the recovered MLE keys
	defer Wipe(keys)
	suffixes := make([][]byte, len(pkgs))
	for i, p := range pkgs {
		cut := len(p.Stub) - aont.TailSize
		head, tail := p.Stub[:cut], p.Stub[cut:]
		// h = SelfXOR(C2) XOR t, folded before out (possibly trimmed
		// itself) is overwritten.
		hs[i] = aont.SelfXORParts(p.Trimmed, head)
		subtle.XORBytes(hs[i][:], hs[i][:], tail)
		// C1 || K_M = C2 XOR G(h): C1 fills out, K_M lands beside it.
		suffixes[i] = keys[i*KeySize : (i+1)*KeySize]
		if err := aont.ApplyMaskParts(hs[i][:], outs[i], suffixes[i], p.Trimmed, head); err != nil {
			return &ChunkError{i, fmt.Errorf("core: enhanced unmask: %w", err)}
		}
	}
	sums := make([]fingerprint.Fingerprint, len(pkgs))
	defer wipeSums(sums)
	fingerprint.SumBatch(sums, outs, suffixes)
	for i, out := range outs {
		if subtle.ConstantTimeCompare(sums[i][:], hs[i][:]) != 1 {
			return &ChunkError{i, ErrIntegrity}
		}
		// CTR is an involution and supports dst == src: decrypt in place.
		if err := mleEncrypt(out, out, suffixes[i]); err != nil {
			return &ChunkError{i, err}
		}
	}
	return nil
}

// mleEncrypt performs deterministic symmetric encryption keyed by the MLE
// key (AES-256-CTR with a zero IV: safe here because each key is derived
// from, and used for, exactly one plaintext). CTR is an involution, so
// the same function decrypts.
func mleEncrypt(dst, src, key []byte) error {
	block, err := aes.NewCipher(key)
	if err != nil {
		return fmt.Errorf("core: mle cipher: %w", err)
	}
	var iv [aes.BlockSize]byte
	cipher.NewCTR(block, iv[:]).XORKeyStream(dst, src)
	return nil
}

// Wipe zeroes b in place. It is the project-wide helper for scrubbing
// transient key material — file-key copies, recovered MLE keys, evicted
// cache entries — once the buffer is dead, shrinking the window in which
// a heap dump or swapped page exposes a key. Best-effort: Go gives no
// guarantee against copies made by the runtime (stack growth, GC
// moves), so Wipe bounds exposure rather than eliminating it.
func Wipe(b []byte) {
	for i := range b {
		b[i] = 0
	}
}
