package fingerprint_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/fingerprint"
)

// internal/core pins both schemes' packages with committed known
// answers, checked there on this machine's fastest path and one chunk at
// a time. These tests seal and open the same chunks as batches on every
// path: a byte that differs between the lanes and crypto/sha256 would
// split deduplication or fail every restore on one kind of machine.

// fixtureBytes is internal/core's fixture expansion: label expanded into
// n bytes with SHA-256 in counter mode.
func fixtureBytes(label string, n int) []byte {
	out := make([]byte, 0, n+sha256.Size)
	for ctr := uint32(0); len(out) < n; ctr++ {
		var c [4]byte
		binary.BigEndian.PutUint32(c[:], ctr)
		sum := sha256.Sum256(append(c[:], label...))
		out = append(out, sum[:]...)
	}
	return out[:n]
}

// fixtureBatch returns one scheme's fixture chunks, keys and committed
// packages three times over, so a batch fills the lanes.
func fixtureBatch(t *testing.T, scheme core.Scheme) (chunks, keys, want [][]byte) {
	for rep := 0; rep < 3; rep++ {
		for _, n := range []int{1, 31, 32, 33, 2048, 8191, 16384} {
			raw, err := os.ReadFile(filepath.Join("..", "core", "testdata", fmt.Sprintf("%s_%d.pkg", scheme, n)))
			if err != nil {
				t.Fatal(err)
			}
			chunks = append(chunks, fixtureBytes(fmt.Sprintf("reed fixture chunk %d", n), n))
			keys = append(keys, fixtureBytes(fmt.Sprintf("reed fixture mle key %d", n), core.KeySize))
			want = append(want, raw)
		}
	}
	return chunks, keys, want
}

func TestBatchSealMatchesFixtures(t *testing.T) {
	for _, path := range fingerprint.Paths() {
		fingerprint.ForcePath(t, path)
		for _, scheme := range []core.Scheme{core.SchemeBasic, core.SchemeEnhanced} {
			codec, err := core.New(scheme)
			if err != nil {
				t.Fatal(err)
			}
			chunks, keys, want := fixtureBatch(t, scheme)
			pkgs := make([]core.Package, len(chunks))
			if err := codec.EncryptBatch(pkgs, chunks, keys); err != nil {
				t.Fatalf("%s %s: %v", path, scheme, err)
			}
			for i, p := range pkgs {
				got := append(append([]byte(nil), p.Trimmed...), p.Stub...)
				if !bytes.Equal(got, want[i]) {
					t.Fatalf("%s %s: chunk %d (%d bytes) differs from the committed package", path, scheme, i, len(chunks[i]))
				}
				single, err := codec.Encrypt(chunks[i], keys[i])
				if err != nil || !bytes.Equal(single.Trimmed, p.Trimmed) || !bytes.Equal(single.Stub, p.Stub) {
					t.Fatalf("%s %s: chunk %d: Encrypt and EncryptBatch disagree (%v)", path, scheme, i, err)
				}
			}
		}
	}
}

// TestBatchOpenInPlace opens the committed packages as one batch, each
// over its own trimmed package, and then with one package tampered in
// every lane position in turn: the batch must fail with ErrIntegrity
// naming that package.
func TestBatchOpenInPlace(t *testing.T) {
	for _, path := range fingerprint.Paths() {
		fingerprint.ForcePath(t, path)
		for _, scheme := range []core.Scheme{core.SchemeBasic, core.SchemeEnhanced} {
			codec, err := core.New(scheme)
			if err != nil {
				t.Fatal(err)
			}
			chunks, _, want := fixtureBatch(t, scheme)
			open := func(tamper int) ([][]byte, error) {
				pkgs := make([]core.Package, len(want))
				dsts := make([][]byte, len(want))
				for i, raw := range want {
					buf := append([]byte(nil), raw...)
					if i == tamper {
						buf[len(buf)/3] ^= 0x01
					}
					cut := len(buf) - core.DefaultStubSize
					pkgs[i] = core.Package{Trimmed: buf[:cut:cut], Stub: buf[cut:]}
					dsts[i] = pkgs[i].Trimmed[:0]
				}
				err := codec.OpenBatch(dsts, pkgs)
				return dsts, err
			}
			got, err := open(-1)
			if err != nil {
				t.Fatalf("%s %s: %v", path, scheme, err)
			}
			for i, chunk := range got {
				if !bytes.Equal(chunk, chunks[i]) {
					t.Fatalf("%s %s: chunk %d opened to different bytes", path, scheme, i)
				}
			}
			for k := range want {
				_, err := open(k)
				var ce *core.ChunkError
				if !errors.Is(err, core.ErrIntegrity) || !errors.As(err, &ce) || ce.Index != k {
					t.Fatalf("%s %s: package %d tampered: err = %v, want ErrIntegrity naming chunk %d", path, scheme, k, err, k)
				}
			}
		}
	}
}
