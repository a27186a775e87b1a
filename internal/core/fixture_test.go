package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the known-answer packages in testdata/ (an at-rest format break: stored chunks stop deduplicating and stop opening)")

// fixtureBytes expands label into n bytes with SHA-256 in counter mode,
// so the pinned inputs depend on nothing but the hash.
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

// fixtureLens straddle the 32-byte SelfXOR piece (31, 32, 33), the AES
// block, and the chunker's bounds (2048 minimum, 16384 maximum); 8191 is
// a long ragged tail.
var fixtureLens = []int{1, 31, 32, 33, 2048, 8191, 16384}

type packageFixture struct {
	file   string
	scheme Scheme
	chunk  []byte
	key    []byte
}

func packageFixtures() []packageFixture {
	var out []packageFixture
	for _, scheme := range []Scheme{SchemeBasic, SchemeEnhanced} {
		for _, n := range fixtureLens {
			out = append(out, packageFixture{
				file:   fmt.Sprintf("%s_%d.pkg", scheme, n),
				scheme: scheme,
				chunk:  fixtureBytes(fmt.Sprintf("reed fixture chunk %d", n), n),
				key:    fixtureBytes(fmt.Sprintf("reed fixture mle key %d", n), KeySize),
			})
		}
	}
	return out
}

// TestEncryptKnownAnswer pins both schemes: each fixture file is the
// trimmed package followed by the 64-byte stub. The trimmed package is
// what the cloud deduplicates on, so a byte that moves here orphans
// every stored chunk.
func TestEncryptKnownAnswer(t *testing.T) {
	for _, fx := range packageFixtures() {
		p, err := mustCodec(t, fx.scheme).Encrypt(fx.chunk, fx.key)
		if err != nil {
			t.Fatalf("%s: %v", fx.file, err)
		}
		if len(p.Stub) != DefaultStubSize {
			t.Fatalf("%s: stub is %d bytes", fx.file, len(p.Stub))
		}
		got := append(append([]byte(nil), p.Trimmed...), p.Stub...)
		path := filepath.Join("testdata", fx.file)
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: package differs from the committed fixture", fx.file)
		}
	}
}

// TestFixturesKeepOpening reads only the committed bytes: Decrypt must
// keep opening packages written before any later change, and so must
// Open in place, as the download path calls it — over a trimmed package
// that sits inside a larger buffer whose bytes past it stay untouched.
func TestFixturesKeepOpening(t *testing.T) {
	for _, fx := range packageFixtures() {
		raw, err := os.ReadFile(filepath.Join("testdata", fx.file))
		if err != nil {
			t.Fatal(err)
		}
		cut := len(raw) - DefaultStubSize
		codec := mustCodec(t, fx.scheme)
		chunk, err := codec.Decrypt(Package{Trimmed: raw[:cut], Stub: raw[cut:]})
		if err != nil {
			t.Errorf("%s: Decrypt: %v", fx.file, err)
			continue
		}
		if !bytes.Equal(chunk, fx.chunk) {
			t.Errorf("%s: Decrypt returned different bytes", fx.file)
		}

		sentinel := bytes.Repeat([]byte{0xA5}, 64)
		buf := append(append([]byte(nil), raw[:cut]...), sentinel...)
		trimmed := buf[:cut]
		chunk, err = codec.Open(trimmed[:0], Package{Trimmed: trimmed, Stub: raw[cut:]})
		if err != nil {
			t.Errorf("%s: Open in place: %v", fx.file, err)
			continue
		}
		if !bytes.Equal(chunk, fx.chunk) {
			t.Errorf("%s: Open in place returned different bytes", fx.file)
		}
		if &chunk[0] != &buf[0] {
			t.Errorf("%s: Open in place did not revert into the trimmed package", fx.file)
		}
		if !bytes.Equal(buf[cut:], sentinel) {
			t.Errorf("%s: Open in place wrote past the trimmed package", fx.file)
		}
	}
}
