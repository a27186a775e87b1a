// Package aont implements the all-or-nothing transform (AONT) and its
// deterministic convergent variant (CAONT).
//
// AONT (Rivest's package transform) converts a message M into a package
// (C, t) such that no part of M can be recovered without the entire
// package. The transform picks a random key K, computes a pseudo-random
// mask G(K) = E(K, S) over a publicly known block S, and outputs
//
//	C = M XOR G(K)
//	t = H(C) XOR K
//
// CAONT (used by CDStore and REED) replaces the random K with a
// deterministic message-derived key so that identical messages yield
// identical packages, preserving deduplication.
//
// This package provides the shared machinery — the mask generator, the
// package/tail layout, and the self-XOR tail used by REED's enhanced
// scheme — plus standalone AONT/CAONT transforms. REED's basic and
// enhanced chunk encryption schemes build on these in internal/core.
package aont

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

const (
	// KeySize is the size of the AONT key (and of SHA-256 output).
	KeySize = sha256.Size
	// TailSize is the size of the package tail t.
	TailSize = sha256.Size
)

// ErrPackageTooShort is returned when a package is shorter than the tail.
var ErrPackageTooShort = errors.New("aont: package shorter than tail")

// Mask returns the pseudo-random mask G(key) of length n: the AES-256-CTR
// keystream over a publicly known all-zero block, i.e. E(key, S) with
// S = 0^n and a zero IV. The mask is deterministic in (key, n).
func Mask(key []byte, n int) ([]byte, error) {
	stream, err := maskStream(key)
	if err != nil {
		return nil, err
	}
	mask := make([]byte, n)
	stream.XORKeyStream(mask, mask)
	return mask, nil
}

// maskStream is the keystream behind G(key): AES-256-CTR from a zero IV.
func maskStream(key []byte) (cipher.Stream, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("aont: mask key length %d, want %d", len(key), KeySize)
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("aont: mask cipher: %w", err)
	}
	var iv [aes.BlockSize]byte
	return cipher.NewCTR(block, iv[:]), nil
}

// XORBytes XORs src into dst (dst ^= src); the slices must have equal
// length.
func XORBytes(dst, src []byte) error {
	if len(dst) != len(src) {
		return fmt.Errorf("aont: xor length mismatch %d vs %d", len(dst), len(src))
	}
	subtle.XORBytes(dst, dst, src)
	return nil
}

// ApplyMask XORs the mask G(key) into data in place, without ever
// materializing the mask: the CTR keystream is applied directly. It is
// its own inverse, and equivalent to XORBytes(data, Mask(key,
// len(data))) minus the allocation and the extra pass — the hot path
// for CAONT package/unpackage.
func ApplyMask(key, data []byte) error {
	return ApplyMaskParts(key, data, nil, data, nil)
}

// ApplyMaskParts XORs the mask G(key) over the message a || b without
// joining the parts, writing the first len(first) bytes of the result to
// first and the rest to rest: one keystream runs on across every
// boundary. len(first)+len(rest) must equal len(a)+len(b). first may
// alias the start of a, and its bytes past len(a) the start of b;
// nothing else may overlap.
func ApplyMaskParts(key, first, rest, a, b []byte) error {
	if len(first)+len(rest) != len(a)+len(b) {
		return fmt.Errorf("aont: mask output %d+%d bytes, input %d+%d", len(first), len(rest), len(a), len(b))
	}
	stream, err := maskStream(key)
	if err != nil {
		return err
	}
	if n := len(first); n <= len(a) {
		stream.XORKeyStream(first, a[:n])
		stream.XORKeyStream(rest[:len(a)-n], a[n:])
		stream.XORKeyStream(rest[len(a)-n:], b)
	} else {
		stream.XORKeyStream(first[:len(a)], a)
		stream.XORKeyStream(first[len(a):], b[:n-len(a)])
		stream.XORKeyStream(rest, b[n-len(a):])
	}
	return nil
}

// Transform applies the randomized AONT to msg, drawing the key from
// randSrc (crypto/rand.Reader if nil). The output package is
// len(msg)+TailSize bytes: head C followed by tail t.
func Transform(msg []byte, randSrc io.Reader) ([]byte, error) {
	if randSrc == nil {
		randSrc = rand.Reader
	}
	key := make([]byte, KeySize)
	if _, err := io.ReadFull(randSrc, key); err != nil {
		return nil, fmt.Errorf("aont: draw key: %w", err)
	}
	return TransformWithKey(msg, key)
}

// TransformWithKey applies the AONT with a caller-supplied key. Supplying
// a deterministic message-derived key yields CAONT. The output package is
// len(msg)+TailSize bytes.
func TransformWithKey(msg, key []byte) ([]byte, error) {
	pkg := make([]byte, len(msg)+TailSize)
	if err := TransformWithKeyInto(pkg, msg, key); err != nil {
		return nil, err
	}
	return pkg, nil
}

// TransformWithKeyInto is TransformWithKey writing into a caller-owned
// buffer of exactly len(msg)+TailSize bytes, performing no allocations:
// the message is copied into the package head and masked in place.
// msg and pkg must not overlap.
func TransformWithKeyInto(pkg, msg, key []byte) error {
	if len(pkg) != len(msg)+TailSize {
		return fmt.Errorf("aont: package buffer %d bytes, want %d", len(pkg), len(msg)+TailSize)
	}
	copy(pkg[:len(msg)], msg)
	return TransformInPlace(pkg, key)
}

// TransformInPlace applies the AONT over a buffer the caller has
// already laid out: pkg[:len(pkg)-TailSize] holds the message and is
// masked in place; the final TailSize bytes are overwritten with the
// tail. This is the allocation-free core of the transform — callers
// that can stage the message directly in the package buffer (the
// upload pipeline builds [chunk || canary] that way) skip every
// intermediate copy.
func TransformInPlace(pkg, key []byte) error {
	if len(pkg) < TailSize {
		return ErrPackageTooShort
	}
	head := pkg[:len(pkg)-TailSize]
	if err := ApplyMask(key, head); err != nil {
		return err
	}
	hc := sha256.Sum256(head)
	subtle.XORBytes(pkg[len(head):], key, hc[:])
	return nil
}

// Revert inverts Transform/TransformWithKey into a fresh buffer, leaving
// pkg untouched: it recovers the message and the key from a package.
// Callers are responsible for verifying the recovered key or an embedded
// canary; Revert itself only checks the package shape.
func Revert(pkg []byte) (msg, key []byte, err error) {
	if len(pkg) < TailSize {
		return nil, nil, ErrPackageTooShort
	}
	msg = make([]byte, len(pkg)-TailSize)
	k, err := RevertParts(msg, nil, pkg[:len(msg)], pkg[len(msg):])
	if err != nil {
		return nil, nil, err
	}
	return msg, k[:], nil
}

// RevertParts is the one revert: it inverts the transform for a package
// given as two parts, a || b, without joining them. b ends with the
// TailSize-byte tail t, and the head C runs from a on into b. The key is
// K = t XOR H(C), and the message C XOR G(K) is written as ApplyMaskParts
// writes it: its first len(first) bytes to first, the rest to rest. C is
// hashed before any byte is written, so first may alias a to revert in
// place. Like Revert, it only checks the package shape.
func RevertParts(first, rest, a, b []byte) (key [KeySize]byte, err error) {
	if len(b) < TailSize {
		return key, ErrPackageTooShort
	}
	head, tail := b[:len(b)-TailSize], b[len(b)-TailSize:]
	d := sha256.New()
	d.Write(a)
	d.Write(head)
	d.Sum(key[:0])
	subtle.XORBytes(key[:], key[:], tail)
	return key, ApplyMaskParts(key[:], first, rest, a, head)
}

// ConvergentKey derives the deterministic CAONT key for msg: H(msg).
func ConvergentKey(msg []byte) []byte {
	h := sha256.Sum256(msg)
	return h[:]
}

// VerifyConvergent checks that key is the convergent key of msg; it is the
// CAONT integrity check ("compute the hash of M and check it equals h").
// The comparison is constant-time: an early-exit equality check would
// hand an active adversary a byte-position timing oracle on the
// recovered key, so key material is never compared with bytes.Equal.
func VerifyConvergent(msg, key []byte) bool {
	return subtle.ConstantTimeCompare(ConvergentKey(msg), key) == 1
}

// SelfXOR computes the XOR of all TailSize-aligned pieces of data, zero-
// padding the final partial piece. REED's enhanced scheme uses it to fold
// the package head into the tail cheaply: the result cannot be predicted
// without the entire head.
func SelfXOR(data []byte) [TailSize]byte {
	// A whole piece is four 64-bit lanes. XOR is bytewise, so the byte
	// order the lanes are loaded in cancels out as long as they are
	// stored the same way.
	var a0, a1, a2, a3 uint64
	for ; len(data) >= TailSize; data = data[TailSize:] {
		a0 ^= binary.LittleEndian.Uint64(data[0:8])
		a1 ^= binary.LittleEndian.Uint64(data[8:16])
		a2 ^= binary.LittleEndian.Uint64(data[16:24])
		a3 ^= binary.LittleEndian.Uint64(data[24:32])
	}
	var acc [TailSize]byte
	binary.LittleEndian.PutUint64(acc[0:8], a0)
	binary.LittleEndian.PutUint64(acc[8:16], a1)
	binary.LittleEndian.PutUint64(acc[16:24], a2)
	binary.LittleEndian.PutUint64(acc[24:32], a3)
	// The ragged tail: a final piece shorter than TailSize.
	for i, b := range data {
		acc[i] ^= b
	}
	return acc
}

// SelfXORParts is SelfXOR(a || b) without joining the parts: b's pieces
// start at offset len(a) of the joined message, so b's fold is rotated
// by that offset before it joins a's.
func SelfXORParts(a, b []byte) [TailSize]byte {
	acc, fb := SelfXOR(a), SelfXOR(b)
	r := len(a) % TailSize
	for i, x := range fb {
		acc[(i+r)%TailSize] ^= x
	}
	return acc
}
