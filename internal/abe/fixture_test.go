package abe

import (
	"bytes"
	"errors"
	"flag"
	mrand "math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/policy"
)

var update = flag.Bool("update", false, "rewrite the X25519 fixtures in testdata/ (an at-rest format break)")

// fixtureHolder holds every attribute the fixture policies name, so the
// one committed access key opens all three ciphertexts.
var fixtureHolder = []string{"alice", "dept", "senior", "a", "b"}

var fixtureCiphertexts = []struct {
	file      string
	pol       *policy.Node
	plaintext string
}{
	{"ciphertext_or.bin", policy.OrOfUsers([]string{"alice", "bob", "carol"}), "reed fixture: or"},
	{"ciphertext_and.bin", policy.And(policy.Leaf("dept"), policy.Leaf("senior")), "reed fixture: and"},
	{"ciphertext_2of3.bin", policy.Threshold(2, policy.Leaf("a"), policy.Leaf("b"), policy.Leaf("c")), "reed fixture: 2 of 3"},
}

func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEncryptKnownAnswer pins the kernel: an authority and three
// ciphertexts built from a fixed random stream must come out byte for
// byte as the committed fixtures, so a change to the scalar PRF, the
// leaf-mask inputs, the share tree or an encoding cannot pass unnoticed.
func TestEncryptKnownAnswer(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(2016))
	auth, err := NewAuthority(rnd)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]byte{
		"bundle.bin":    auth.PublicKeys([]string{"alice", "bob", "carol", "dept", "senior", "a", "b", "c"}).Marshal(),
		"accesskey.bin": auth.IssueKey("alice", fixtureHolder).Marshal(),
	}
	for _, fx := range fixtureCiphertexts {
		ct, err := Encrypt(auth.PublicKeys(fx.pol.Leaves()), fx.pol, []byte(fx.plaintext), rnd)
		if err != nil {
			t.Fatal(err)
		}
		got[fx.file] = ct.Marshal()
	}
	for name, b := range got {
		if *update {
			if err := os.WriteFile(filepath.Join("testdata", name), b, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if !bytes.Equal(b, readFixture(t, name)) {
			t.Errorf("%s: output under the fixed random stream differs from the committed fixture", name)
		}
	}
}

// TestFixturesKeepDecoding reads only the committed bytes: the access
// key must open every ciphertext, and a ciphertext sealed through the
// committed bundle must open too.
func TestFixturesKeepDecoding(t *testing.T) {
	key, err := UnmarshalPrivateKey(readFixture(t, "accesskey.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if key.Holder != "alice" || len(key.Scalars) != len(fixtureHolder) {
		t.Fatalf("access key = holder %q, %d attributes", key.Holder, len(key.Scalars))
	}
	for _, fx := range fixtureCiphertexts {
		ct, err := UnmarshalCiphertext(readFixture(t, fx.file))
		if err != nil {
			t.Fatalf("%s: %v", fx.file, err)
		}
		pt, err := Decrypt(key, ct)
		if err != nil || string(pt) != fx.plaintext {
			t.Errorf("%s: Decrypt = %q, %v", fx.file, pt, err)
		}
	}

	bundle, err := UnmarshalPublicKeys(readFixture(t, "bundle.bin"))
	if err != nil {
		t.Fatal(err)
	}
	pol := policy.OrOfUsers([]string{"alice", "carol"})
	ct, err := Encrypt(bundle.PublicKeys(pol.Leaves()), pol, []byte("via bundle"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if pt, err := Decrypt(key, ct); err != nil || string(pt) != "via bundle" {
		t.Errorf("sealed through the committed bundle: Decrypt = %q, %v", pt, err)
	}
}

// TestMODPEraBlobsFailClosed: blobs written by the 2048-bit MODP kernel
// this package replaced have 256-byte group elements and 64-byte
// scalars. They must be refused as corrupt, never read as X25519 values.
func TestMODPEraBlobsFailClosed(t *testing.T) {
	if _, err := UnmarshalCiphertext(readFixture(t, "modp_ciphertext.bin")); !errors.Is(err, ErrCorrupt) {
		t.Errorf("MODP-era ciphertext: error = %v, want ErrCorrupt", err)
	}
	if _, err := UnmarshalPrivateKey(readFixture(t, "modp_accesskey.bin")); !errors.Is(err, ErrCorrupt) {
		t.Errorf("MODP-era access key: error = %v, want ErrCorrupt", err)
	}
	if _, err := UnmarshalPublicKeys(readFixture(t, "modp_bundle.bin")); !errors.Is(err, ErrCorrupt) {
		t.Errorf("MODP-era bundle: error = %v, want ErrCorrupt", err)
	}
}
