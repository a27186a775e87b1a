// Package recipe defines file recipes: the per-file metadata a REED
// client uploads so files can be reassembled from deduplicated chunks.
//
// A recipe records the file's name, size, the encryption scheme used,
// the key-state version that protects its stub file, and the ordered
// list of chunk references (fingerprint of the trimmed package plus the
// chunk's plaintext size).
package recipe

import (
	"errors"
	"fmt"

	"repro/internal/binenc"
	"repro/internal/fingerprint"
)

// formatVersion guards against decoding recipes from incompatible
// builds. Version 2 added FileHash (the whole-file SHA-256 backing the
// two-phase upload's clone verification); version 1 recipes are not
// readable.
const formatVersion = 2

// maxChunks bounds decoded recipes (a 1 TB file at 2 KB chunks).
const maxChunks = 1 << 29

// ErrBadRecipe is returned for malformed recipe encodings.
var ErrBadRecipe = errors.New("recipe: malformed recipe")

// ChunkRef references one chunk of a file.
type ChunkRef struct {
	// Fingerprint identifies the trimmed package in the data store.
	Fingerprint fingerprint.Fingerprint
	// Size is the plaintext chunk size in bytes.
	Size uint32
}

// Recipe describes an uploaded file.
type Recipe struct {
	// Path is the file's logical pathname (the paper obfuscates it at a
	// higher layer; the recipe itself travels encrypted or in the clear
	// per deployment policy).
	Path string
	// Size is the plaintext file size in bytes.
	Size uint64
	// Scheme is the chunk encryption scheme (core.Scheme numeric
	// value).
	Scheme uint8
	// KeyVersion is the key-regression version of the file key that
	// encrypts this file's stub file.
	KeyVersion uint64
	// FileHash is the linear SHA-256 of the whole plaintext file. The
	// two-phase upload's clone path verifies a whole-file index hit
	// against it, which makes stale index entries harmless (see
	// internal/fileindex).
	FileHash [32]byte
	// Chunks lists the file's chunks in order.
	Chunks []ChunkRef
}

// Validate checks internal consistency: chunk sizes must sum to Size.
func (r *Recipe) Validate() error {
	var total uint64
	for _, c := range r.Chunks {
		total += uint64(c.Size)
	}
	if total != r.Size {
		return fmt.Errorf("%w: chunk sizes sum to %d, file size %d", ErrBadRecipe, total, r.Size)
	}
	return nil
}

// Marshal encodes the recipe.
func (r *Recipe) Marshal() []byte {
	w := binenc.NewWriter(96 + len(r.Chunks)*(fingerprint.Size+4))
	w.Uint8(formatVersion)
	w.String(r.Path)
	w.Uint64(r.Size)
	w.Uint8(r.Scheme)
	w.Uint64(r.KeyVersion)
	w.Raw(r.FileHash[:])
	w.Uvarint(uint64(len(r.Chunks)))
	for _, c := range r.Chunks {
		w.Raw(c.Fingerprint[:])
		w.Uint32(c.Size)
	}
	return w.Bytes()
}

// Unmarshal decodes a recipe produced by Marshal.
func Unmarshal(b []byte) (*Recipe, error) {
	rd := binenc.NewReader(b)
	version, err := rd.Uint8()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRecipe, err)
	}
	if version != formatVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadRecipe, version)
	}
	var r Recipe
	if r.Path, err = rd.ReadString(); err != nil {
		return nil, fmt.Errorf("%w: path: %v", ErrBadRecipe, err)
	}
	if r.Size, err = rd.Uint64(); err != nil {
		return nil, fmt.Errorf("%w: size: %v", ErrBadRecipe, err)
	}
	if r.Scheme, err = rd.Uint8(); err != nil {
		return nil, fmt.Errorf("%w: scheme: %v", ErrBadRecipe, err)
	}
	if r.KeyVersion, err = rd.Uint64(); err != nil {
		return nil, fmt.Errorf("%w: key version: %v", ErrBadRecipe, err)
	}
	hash, err := rd.ReadRaw(len(r.FileHash))
	if err != nil {
		return nil, fmt.Errorf("%w: file hash: %v", ErrBadRecipe, err)
	}
	copy(r.FileHash[:], hash)
	count, err := rd.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: chunk count: %v", ErrBadRecipe, err)
	}
	if count > maxChunks {
		return nil, fmt.Errorf("%w: %d chunks exceeds limit", ErrBadRecipe, count)
	}
	// Each reference is a fingerprint and a 4-byte size; a count the
	// remaining bytes cannot hold must fail before it sizes an allocation.
	if count > uint64(rd.Remaining()/(fingerprint.Size+4)) {
		return nil, fmt.Errorf("%w: %d chunks in %d bytes", ErrBadRecipe, count, rd.Remaining())
	}
	r.Chunks = make([]ChunkRef, 0, count)
	for i := uint64(0); i < count; i++ {
		raw, err := rd.ReadRaw(fingerprint.Size)
		if err != nil {
			return nil, fmt.Errorf("%w: chunk %d: %v", ErrBadRecipe, i, err)
		}
		fp, err := fingerprint.FromSlice(raw)
		if err != nil {
			return nil, err
		}
		size, err := rd.Uint32()
		if err != nil {
			return nil, fmt.Errorf("%w: chunk %d size: %v", ErrBadRecipe, i, err)
		}
		r.Chunks = append(r.Chunks, ChunkRef{Fingerprint: fp, Size: size})
	}
	if !rd.Done() {
		return nil, fmt.Errorf("%w: trailing bytes", ErrBadRecipe)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}
