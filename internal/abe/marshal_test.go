package abe

import (
	"bytes"
	"testing"

	"repro/internal/policy"
)

func TestAuthorityMarshalRoundTrip(t *testing.T) {
	a1 := newTestAuthority(t)
	a2, err := UnmarshalAuthority(a1.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	// The restored authority must issue identical attribute keys.
	k1 := a1.IssueKey("u", []string{"attr"})
	k2 := a2.IssueKey("u", []string{"attr"})
	if !k1.Scalars["attr"].Equal(k2.Scalars["attr"]) {
		t.Fatal("restored authority issues different keys")
	}
	// And a key from the restored authority must decrypt ciphertexts
	// from the original.
	pol := policy.OrOfUsers([]string{"u"})
	ct, err := Encrypt(a1.PublicKeys(pol.Leaves()), pol, []byte("x"), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decrypt(a2.IssueKey("u", []string{"u"}), ct)
	if err != nil || !bytes.Equal(got, []byte("x")) {
		t.Fatalf("cross-restore decrypt: %v", err)
	}
}

func TestUnmarshalAuthorityErrors(t *testing.T) {
	tests := [][]byte{nil, {0x01}, append((&Authority{master: make([]byte, 32)}).Marshal(), 0xFF)}
	for _, give := range tests {
		if _, err := UnmarshalAuthority(give); err == nil {
			t.Fatalf("UnmarshalAuthority(%v) expected error", give)
		}
	}
	// Too-short master secret.
	short := (&Authority{master: []byte{1, 2, 3}}).Marshal()
	if _, err := UnmarshalAuthority(short); err == nil {
		t.Fatal("short master accepted")
	}
}

func TestPrivateKeyMarshalRoundTrip(t *testing.T) {
	a := newTestAuthority(t)
	k1 := a.IssueKey("alice", []string{"alice", "dept"})
	k2, err := UnmarshalPrivateKey(k1.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if k2.Holder != "alice" || len(k2.Scalars) != 2 {
		t.Fatalf("restored key = %+v", k2)
	}
	for attr, s := range k1.Scalars {
		if !k2.Scalars[attr].Equal(s) {
			t.Fatalf("scalar for %q differs", attr)
		}
	}
	// The restored key must decrypt.
	pol := policy.OrOfUsers([]string{"alice"})
	ct, err := Encrypt(a.PublicKeys(pol.Leaves()), pol, []byte("m"), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decrypt(k2, ct)
	if err != nil || !bytes.Equal(got, []byte("m")) {
		t.Fatalf("restored key decrypt: %v", err)
	}
}

func TestUnmarshalPrivateKeyErrors(t *testing.T) {
	for _, give := range [][]byte{nil, {0x05, 0x41}} {
		if _, err := UnmarshalPrivateKey(give); err == nil {
			t.Fatalf("UnmarshalPrivateKey(%v) expected error", give)
		}
	}
}

func TestPublicKeysMarshalAndDirectory(t *testing.T) {
	a := newTestAuthority(t)
	bundle := a.PublicKeys([]string{"alice", "bob", "carol"})
	restored, err := UnmarshalPublicKeys(bundle.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	// The restored bundle acts as a directory: encryption through it
	// must produce ciphertexts the real keys decrypt.
	pol := policy.OrOfUsers([]string{"alice", "bob"})
	subset := restored.PublicKeys(pol.Leaves())
	if len(subset.Keys) != 2 {
		t.Fatalf("subset size = %d", len(subset.Keys))
	}
	ct, err := Encrypt(subset, pol, []byte("via bundle"), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decrypt(a.IssueKey("bob", []string{"bob"}), ct)
	if err != nil || !bytes.Equal(got, []byte("via bundle")) {
		t.Fatalf("decrypt via bundle-encrypted ct: %v", err)
	}
}

func TestUnmarshalPublicKeysErrors(t *testing.T) {
	for _, give := range [][]byte{{0x05, 0x41}, {0xFF, 0xFF, 0xFF, 0xFF, 0x7F}} {
		if _, err := UnmarshalPublicKeys(give); err == nil {
			t.Fatalf("UnmarshalPublicKeys(%v) expected error", give)
		}
	}
}
