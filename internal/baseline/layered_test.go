// Package baseline implements, in its tests alone, the
// layered-encryption rekeying approach the paper contrasts REED against
// (Section II-C), as a comparator for the security demonstration and
// the rekey benchmark beside it.
//
// In layered encryption, each chunk is MLE-encrypted as usual and
// deduplicated on the ciphertext; the chunk's MLE key is then wrapped
// under a per-file master key and stored as file metadata. Rekeying
// replaces the master key and re-wraps the (small) key file — cheap,
// and deduplication is untouched.
//
// Its weakness, which motivates REED: every ciphertext remains encrypted
// under its original MLE key forever. An adversary who learns a chunk's
// MLE key (e.g. by monitoring a client, Section III-B) can decrypt that
// chunk from the stored ciphertext no matter how many rekeys happened
// since. REED's all-or-nothing split makes the same leak useless without
// the per-file stub. TestLayeredLeak* in this package and
// TestBasicSchemeLeaksUnderMLEKeyCompromise in internal/core demonstrate
// the two sides.
package baseline

import (
	"context"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"fmt"
	"io"

	"repro/internal/binenc"
	"repro/internal/dedup"
	"repro/internal/fingerprint"
	"repro/internal/mle"
	"repro/internal/store"
)

// MasterKeySize is the per-file master key size.
const MasterKeySize = 32

// ErrNotFound is returned for unknown paths.
var ErrNotFound = errors.New("baseline: file not found")

// Store is a layered-encryption deduplicating store. It is a local
// library (no network): the comparison of interest is the rekeying
// model, not the transport.
type Store struct {
	chunks  *dedup.Store
	backend store.Backend
	deriver mle.KeyDeriver
}

// New builds a store over a backend, deriving MLE keys with deriver.
func New(ctx context.Context, backend store.Backend, deriver mle.KeyDeriver) (*Store, error) {
	chunks, err := dedup.Open(ctx, backend, dedup.DefaultContainerSize)
	if err != nil {
		return nil, err
	}
	return &Store{chunks: chunks, backend: backend, deriver: deriver}, nil
}

// NewMasterKey draws a fresh master key.
func NewMasterKey() ([]byte, error) {
	key := make([]byte, MasterKeySize)
	if _, err := io.ReadFull(rand.Reader, key); err != nil {
		return nil, fmt.Errorf("baseline: master key: %w", err)
	}
	return key, nil
}

// fileMeta is the per-file metadata: ciphertext fingerprints plus the
// wrapped MLE keys.
type fileMeta struct {
	fps   []fingerprint.Fingerprint
	sizes []uint32
}

// Upload stores chunks, deduplicating ciphertexts, and wraps the MLE
// keys under masterKey. Returns the number of deduplicated chunks.
func (s *Store) Upload(ctx context.Context, path string, chunks [][]byte, masterKey []byte) (int, error) {
	var (
		meta fileMeta
		keys [][]byte
		dups int
	)
	for i, chunk := range chunks {
		if len(chunk) == 0 {
			return 0, fmt.Errorf("baseline: empty chunk %d", i)
		}
		key, err := s.deriver.DeriveKey(fingerprint.New(chunk))
		if err != nil {
			return 0, err
		}
		ct, err := mle.Encrypt(key, chunk)
		if err != nil {
			return 0, err
		}
		fp := fingerprint.New(ct)
		dup, err := s.chunks.Put(ctx, fp, ct)
		if err != nil {
			return 0, err
		}
		if dup {
			dups++
		}
		meta.fps = append(meta.fps, fp)
		meta.sizes = append(meta.sizes, uint32(len(chunk)))
		keys = append(keys, key)
	}

	blob, err := sealKeyFile(meta, keys, masterKey, path)
	if err != nil {
		return 0, err
	}
	if err := s.backend.Put(ctx, store.NSRecipes, path, blob); err != nil {
		return 0, err
	}
	return dups, nil
}

// Download reassembles a file using masterKey to unwrap its MLE keys.
func (s *Store) Download(ctx context.Context, path string, masterKey []byte) ([]byte, error) {
	blob, err := s.backend.Get(ctx, store.NSRecipes, path)
	if errors.Is(err, store.ErrNotFound) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	if err != nil {
		return nil, err
	}
	meta, keys, err := openKeyFile(blob, masterKey, path)
	if err != nil {
		return nil, err
	}
	var out []byte
	for i, fp := range meta.fps {
		ct, err := s.chunks.Get(ctx, fp)
		if err != nil {
			return nil, err
		}
		pt, err := mle.Decrypt(keys[i], ct)
		if err != nil {
			return nil, err
		}
		if uint32(len(pt)) != meta.sizes[i] {
			return nil, fmt.Errorf("baseline: chunk %d size mismatch", i)
		}
		out = append(out, pt...)
	}
	return out, nil
}

// Rekey re-wraps the file's MLE keys under a new master key. This is
// the operation layered encryption makes cheap — but note what it does
// NOT do: the stored ciphertexts and their MLE keys are unchanged.
func (s *Store) Rekey(ctx context.Context, path string, oldMaster, newMaster []byte) error {
	blob, err := s.backend.Get(ctx, store.NSRecipes, path)
	if errors.Is(err, store.ErrNotFound) {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	if err != nil {
		return err
	}
	meta, keys, err := openKeyFile(blob, oldMaster, path)
	if err != nil {
		return err
	}
	reblob, err := sealKeyFile(meta, keys, newMaster, path)
	if err != nil {
		return err
	}
	return s.backend.Put(ctx, store.NSRecipes, path, reblob)
}

// Ciphertext returns the stored ciphertext of the chunk with the given
// plaintext, if present — the adversary's view used by the leak
// demonstration tests.
func (s *Store) Ciphertext(ctx context.Context, chunk []byte) ([]byte, error) {
	key, err := s.deriver.DeriveKey(fingerprint.New(chunk))
	if err != nil {
		return nil, err
	}
	ct, err := mle.Encrypt(key, chunk)
	if err != nil {
		return nil, err
	}
	return s.chunks.Get(ctx, fingerprint.New(ct))
}

// Stats exposes dedup statistics.
func (s *Store) Stats() dedup.Stats { return s.chunks.Stats() }

// Close flushes the store.
func (s *Store) Close(ctx context.Context) error { return s.chunks.Close(ctx) }

// sealKeyFile encodes the metadata and wraps it with AES-256-GCM under
// the master key.
func sealKeyFile(meta fileMeta, keys [][]byte, masterKey []byte, path string) ([]byte, error) {
	w := binenc.NewWriter(64 * len(keys))
	w.Uvarint(uint64(len(keys)))
	for i := range keys {
		w.Raw(meta.fps[i][:])
		w.Uint32(meta.sizes[i])
		w.WriteBytes(keys[i])
	}

	aead, err := masterAEAD(masterKey)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, aead.NonceSize())
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, err
	}
	return append(nonce, aead.Seal(nil, nonce, w.Bytes(), []byte(path))...), nil
}

// openKeyFile inverts sealKeyFile.
func openKeyFile(blob, masterKey []byte, path string) (fileMeta, [][]byte, error) {
	var meta fileMeta
	aead, err := masterAEAD(masterKey)
	if err != nil {
		return meta, nil, err
	}
	if len(blob) < aead.NonceSize() {
		return meta, nil, errors.New("baseline: key file too short")
	}
	plain, err := aead.Open(nil, blob[:aead.NonceSize()], blob[aead.NonceSize():], []byte(path))
	if err != nil {
		return meta, nil, fmt.Errorf("baseline: key file authentication: %w", err)
	}

	r := binenc.NewReader(plain)
	count, err := r.Uvarint()
	if err != nil {
		return meta, nil, err
	}
	if count > 1<<28 {
		return meta, nil, errors.New("baseline: key file too large")
	}
	keys := make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		raw, err := r.ReadRaw(fingerprint.Size)
		if err != nil {
			return meta, nil, err
		}
		fp, err := fingerprint.FromSlice(raw)
		if err != nil {
			return meta, nil, err
		}
		size, err := r.Uint32()
		if err != nil {
			return meta, nil, err
		}
		key, err := r.ReadBytesCopy()
		if err != nil {
			return meta, nil, err
		}
		meta.fps = append(meta.fps, fp)
		meta.sizes = append(meta.sizes, size)
		keys = append(keys, key)
	}
	if !r.Done() {
		return meta, nil, errors.New("baseline: trailing bytes in key file")
	}
	return meta, keys, nil
}

func masterAEAD(masterKey []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(masterKey)
	if err != nil {
		return nil, fmt.Errorf("baseline: master cipher: %w", err)
	}
	return cipher.NewGCM(block)
}
