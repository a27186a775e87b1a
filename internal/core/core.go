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
// on into the stub (the basic scheme's revert is aont.RevertParts; the
// enhanced one is built from aont.SelfXORParts and aont.ApplyMaskParts),
// and the chunk is 64 bytes shorter than the package, so Open can write
// it over the trimmed package it is reading: a restore reverts each chunk
// inside the reply frame that carried it.
package core

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
	"slices"

	"repro/internal/aont"
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
// The chunk must be non-empty and the MLE key exactly KeySize bytes.
func (c *Codec) Encrypt(chunk, mleKey []byte) (Package, error) {
	if len(chunk) == 0 {
		return Package{}, errors.New("core: empty chunk")
	}
	if len(mleKey) != KeySize {
		return Package{}, fmt.Errorf("core: MLE key length %d, want %d", len(mleKey), KeySize)
	}
	var (
		pkg []byte
		err error
	)
	switch c.scheme {
	case SchemeBasic:
		pkg, err = encryptBasic(chunk, mleKey)
	case SchemeEnhanced:
		pkg, err = encryptEnhanced(chunk, mleKey)
	default:
		return Package{}, ErrBadScheme
	}
	if err != nil {
		return Package{}, err
	}
	return c.split(pkg)
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
// capacity are unspecified.
//
// The package is reverted as its two parts, trimmed package and stub,
// without rejoining them: the stub's last aont.TailSize bytes are the
// package tail, and the head before it runs on from p.Trimmed into the
// stub. A stub shorter than the tail is not a package of either scheme.
func (c *Codec) Open(dst []byte, p Package) ([]byte, error) {
	n := len(p.Trimmed) + len(p.Stub) - PackageOverhead
	if len(p.Stub) < aont.TailSize || n < 0 {
		return nil, ErrIntegrity
	}
	ret := slices.Grow(dst, n)[:len(dst)+n]
	var err error
	switch c.scheme {
	case SchemeBasic:
		err = openBasic(ret[len(dst):], p.Trimmed, p.Stub)
	case SchemeEnhanced:
		err = openEnhanced(ret[len(dst):], p.Trimmed, p.Stub)
	default:
		err = ErrBadScheme
	}
	if err != nil {
		return nil, err
	}
	return ret, nil
}

// split separates a full package into trimmed package and stub.
func (c *Codec) split(pkg []byte) (Package, error) {
	if len(pkg) < c.stubSize {
		return Package{}, fmt.Errorf("core: package size %d below stub size %d", len(pkg), c.stubSize)
	}
	cut := len(pkg) - c.stubSize
	return Package{Trimmed: pkg[:cut], Stub: pkg[cut:]}, nil
}

// encryptBasic implements Figure 2 with a single buffer: the package is
// laid out as [M || canary || tail] up front and transformed in place,
// so the only copies are the chunk into the head and one AES-CTR pass.
func encryptBasic(chunk, mleKey []byte) ([]byte, error) {
	pkg := make([]byte, len(chunk)+CanarySize+aont.TailSize)
	copy(pkg, chunk) // the canary bytes stay zero
	if err := aont.TransformInPlace(pkg, mleKey); err != nil {
		return nil, fmt.Errorf("core: basic transform: %w", err)
	}
	return pkg, nil
}

// openBasic reverts Figure 2 into out and checks the canary: the CAONT
// revert of the package trimmed || stub, with M going to out and the
// canary beside it.
func openBasic(out, trimmed, stub []byte) error {
	key := [KeySize]byte{} //reed:secret — the recovered MLE key; the canary checks it
	defer Wipe(key[:])
	var canary [CanarySize]byte
	key, err := aont.RevertParts(out, canary[:], trimmed, stub)
	if err != nil {
		return fmt.Errorf("core: basic revert: %w", err)
	}
	if canary != [CanarySize]byte{} {
		return ErrIntegrity
	}
	return nil
}

// encryptEnhanced implements Figure 3, staging X = C1 || K_M directly in
// the package buffer so masking happens in place and nothing is copied
// twice.
func encryptEnhanced(chunk, mleKey []byte) ([]byte, error) {
	pkg := make([]byte, len(chunk)+KeySize+aont.TailSize)
	x := pkg[:len(chunk)+KeySize]

	// C1 = E(K_M, M): deterministic MLE encryption, straight into the
	// package head.
	if err := mleEncrypt(x[:len(chunk)], chunk, mleKey); err != nil {
		return nil, err
	}
	copy(x[len(chunk):], mleKey)

	// h = H(X); C2 = X XOR G(h), in place.
	h := sha256.Sum256(x)
	if err := aont.ApplyMask(h[:], x); err != nil {
		return nil, fmt.Errorf("core: enhanced mask: %w", err)
	}

	// t = SelfXOR(C2) XOR h.
	tail := aont.SelfXOR(x)
	for i := range tail {
		tail[i] ^= h[i]
	}
	copy(pkg[len(x):], tail[:])
	return pkg, nil
}

// openEnhanced reverts Figure 3 into out and checks H(C1 || K_M) == h.
// The package is trimmed || stub: its head C2 runs on into the stub, whose
// last aont.TailSize bytes are the tail t.
func openEnhanced(out, trimmed, stub []byte) error {
	stubHead, tail := stub[:len(stub)-aont.TailSize], stub[len(stub)-aont.TailSize:]
	// h = SelfXOR(C2) XOR t, folded before out (possibly trimmed itself)
	// is overwritten.
	h := aont.SelfXORParts(trimmed, stubHead)
	subtle.XORBytes(h[:], h[:], tail)

	// C1 || K_M = C2 XOR G(h): C1 fills out, K_M lands beside it.
	key := [KeySize]byte{} //reed:secret — the recovered MLE key
	defer Wipe(key[:])
	if err := aont.ApplyMaskParts(h[:], out, key[:], trimmed, stubHead); err != nil {
		return fmt.Errorf("core: enhanced unmask: %w", err)
	}

	// Integrity: H(C1 || K_M) must equal h.
	d := sha256.New()
	d.Write(out)
	d.Write(key[:])
	if subtle.ConstantTimeCompare(d.Sum(nil), h[:]) != 1 {
		return ErrIntegrity
	}
	// CTR is an involution and supports dst == src: decrypt in place.
	return mleEncrypt(out, out, key[:])
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
