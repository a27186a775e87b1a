package abe

import (
	"bytes"
	"crypto/ecdh"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"repro/internal/policy"
)

func newTestAuthority(t testing.TB) *Authority {
	t.Helper()
	a, err := NewAuthority(nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestEncryptDecryptOrPolicy(t *testing.T) {
	auth := newTestAuthority(t)
	pol := policy.OrOfUsers([]string{"alice", "bob", "carol"})
	pub := auth.PublicKeys(pol.Leaves())
	plaintext := []byte("the file key state")

	ct, err := Encrypt(pub, pol, plaintext, nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, user := range []string{"alice", "bob", "carol"} {
		key := auth.IssueKey(user, []string{user})
		got, err := Decrypt(key, ct)
		if err != nil {
			t.Fatalf("Decrypt as %s: %v", user, err)
		}
		if !bytes.Equal(got, plaintext) {
			t.Fatalf("Decrypt as %s returned wrong plaintext", user)
		}
	}
}

func TestUnauthorizedUserRejected(t *testing.T) {
	auth := newTestAuthority(t)
	pol := policy.OrOfUsers([]string{"alice", "bob"})
	pub := auth.PublicKeys(pol.Leaves())
	ct, err := Encrypt(pub, pol, []byte("secret"), nil)
	if err != nil {
		t.Fatal(err)
	}
	mallory := auth.IssueKey("mallory", []string{"mallory"})
	if _, err := Decrypt(mallory, ct); !errors.Is(err, ErrNotAuthorized) {
		t.Fatalf("error = %v, want ErrNotAuthorized", err)
	}
}

// TestRevocationSemantics is REED's rekeying scenario: after
// re-encrypting under a policy that omits bob, bob's old key no longer
// decrypts the new ciphertext, while alice's still does.
func TestRevocationSemantics(t *testing.T) {
	auth := newTestAuthority(t)
	oldPol := policy.OrOfUsers([]string{"alice", "bob"})
	newPol := policy.OrOfUsers([]string{"alice"})

	alice := auth.IssueKey("alice", []string{"alice"})
	bob := auth.IssueKey("bob", []string{"bob"})

	oldCT, err := Encrypt(auth.PublicKeys(oldPol.Leaves()), oldPol, []byte("v1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	newCT, err := Encrypt(auth.PublicKeys(newPol.Leaves()), newPol, []byte("v2"), nil)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := Decrypt(bob, oldCT); err != nil {
		t.Fatalf("bob should decrypt the old ciphertext: %v", err)
	}
	if _, err := Decrypt(bob, newCT); !errors.Is(err, ErrNotAuthorized) {
		t.Fatalf("bob on new ciphertext: error = %v, want ErrNotAuthorized", err)
	}
	if got, err := Decrypt(alice, newCT); err != nil || !bytes.Equal(got, []byte("v2")) {
		t.Fatalf("alice on new ciphertext: %v", err)
	}
}

func TestAndPolicy(t *testing.T) {
	auth := newTestAuthority(t)
	pol := policy.And(policy.Leaf("dept-genomics"), policy.Leaf("senior"))
	pub := auth.PublicKeys(pol.Leaves())
	ct, err := Encrypt(pub, pol, []byte("and-gated"), nil)
	if err != nil {
		t.Fatal(err)
	}

	both := auth.IssueKey("u1", []string{"dept-genomics", "senior"})
	if got, err := Decrypt(both, ct); err != nil || !bytes.Equal(got, []byte("and-gated")) {
		t.Fatalf("user with both attributes: %v", err)
	}

	onlyOne := auth.IssueKey("u2", []string{"dept-genomics"})
	if _, err := Decrypt(onlyOne, ct); !errors.Is(err, ErrNotAuthorized) {
		t.Fatalf("user with one attribute: error = %v, want ErrNotAuthorized", err)
	}
}

func TestThresholdPolicy(t *testing.T) {
	auth := newTestAuthority(t)
	pol := policy.Threshold(2, policy.Leaf("a"), policy.Leaf("b"), policy.Leaf("c"))
	pub := auth.PublicKeys(pol.Leaves())
	ct, err := Encrypt(pub, pol, []byte("2of3"), nil)
	if err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		name  string
		attrs []string
		want  bool
	}{
		{"a+b", []string{"a", "b"}, true},
		{"a+c", []string{"a", "c"}, true},
		{"b+c", []string{"b", "c"}, true},
		{"all", []string{"a", "b", "c"}, true},
		{"only a", []string{"a"}, false},
		{"none", []string{"z"}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			key := auth.IssueKey("u", tt.attrs)
			got, err := Decrypt(key, ct)
			if tt.want {
				if err != nil || !bytes.Equal(got, []byte("2of3")) {
					t.Fatalf("Decrypt: %v", err)
				}
			} else if !errors.Is(err, ErrNotAuthorized) {
				t.Fatalf("error = %v, want ErrNotAuthorized", err)
			}
		})
	}
}

func TestNestedPolicy(t *testing.T) {
	auth := newTestAuthority(t)
	pol, err := policy.Parse("and(dept, or(alice, bob))")
	if err != nil {
		t.Fatal(err)
	}
	pub := auth.PublicKeys(pol.Leaves())
	ct, err := Encrypt(pub, pol, []byte("nested"), nil)
	if err != nil {
		t.Fatal(err)
	}
	ok := auth.IssueKey("u", []string{"dept", "bob"})
	if _, err := Decrypt(ok, ct); err != nil {
		t.Fatalf("satisfying key failed: %v", err)
	}
	bad := auth.IssueKey("u", []string{"alice", "bob"})
	if _, err := Decrypt(bad, ct); !errors.Is(err, ErrNotAuthorized) {
		t.Fatalf("error = %v, want ErrNotAuthorized", err)
	}
}

func TestDifferentAuthoritiesIncompatible(t *testing.T) {
	a1 := newTestAuthority(t)
	a2 := newTestAuthority(t)
	pol := policy.OrOfUsers([]string{"alice"})
	ct, err := Encrypt(a1.PublicKeys(pol.Leaves()), pol, []byte("x"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// A key issued by a different authority must not decrypt.
	foreign := a2.IssueKey("alice", []string{"alice"})
	if _, err := Decrypt(foreign, ct); err == nil {
		t.Fatal("key from a different authority decrypted the ciphertext")
	}
}

func TestEncryptMissingPublicKey(t *testing.T) {
	auth := newTestAuthority(t)
	pol := policy.OrOfUsers([]string{"alice", "bob"})
	pub := auth.PublicKeys([]string{"alice"}) // bob missing
	if _, err := Encrypt(pub, pol, []byte("x"), nil); err == nil {
		t.Fatal("missing public key expected error")
	}
}

func TestEncryptInvalidPolicy(t *testing.T) {
	auth := newTestAuthority(t)
	if _, err := Encrypt(auth.PublicKeys(nil), policy.Or(), []byte("x"), nil); err == nil {
		t.Fatal("invalid policy expected error")
	}
}

func TestCiphertextMarshalRoundTrip(t *testing.T) {
	auth := newTestAuthority(t)
	pol := policy.OrOfUsers([]string{"alice", "bob", "carol"})
	ct, err := Encrypt(auth.PublicKeys(pol.Leaves()), pol, []byte("marshaled"), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalCiphertext(ct.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	alice := auth.IssueKey("alice", []string{"alice"})
	pt, err := Decrypt(alice, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, []byte("marshaled")) {
		t.Fatal("round-tripped ciphertext decrypted to wrong plaintext")
	}
}

func TestUnmarshalCiphertextErrors(t *testing.T) {
	auth := newTestAuthority(t)
	pol := policy.OrOfUsers([]string{"alice"})
	ct, err := Encrypt(auth.PublicKeys(pol.Leaves()), pol, []byte("x"), nil)
	if err != nil {
		t.Fatal(err)
	}
	valid := ct.Marshal()

	tests := []struct {
		name string
		give []byte
	}{
		{"empty", nil},
		{"truncated", valid[:8]},
		{"trailing", append(append([]byte(nil), valid...), 0xFF)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := UnmarshalCiphertext(tt.give); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error = %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestTamperedBodyRejected(t *testing.T) {
	auth := newTestAuthority(t)
	pol := policy.OrOfUsers([]string{"alice"})
	ct, err := Encrypt(auth.PublicKeys(pol.Leaves()), pol, []byte("tamper"), nil)
	if err != nil {
		t.Fatal(err)
	}
	ct.Body[0] ^= 0x01
	alice := auth.IssueKey("alice", []string{"alice"})
	if _, err := Decrypt(alice, ct); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error = %v, want ErrCorrupt", err)
	}
}

func TestTamperedShareRejected(t *testing.T) {
	auth := newTestAuthority(t)
	pol := policy.OrOfUsers([]string{"alice"})
	ct, err := Encrypt(auth.PublicKeys(pol.Leaves()), pol, []byte("tamper"), nil)
	if err != nil {
		t.Fatal(err)
	}
	ct.Wrapped[0][0] ^= 0x01
	alice := auth.IssueKey("alice", []string{"alice"})
	if _, err := Decrypt(alice, ct); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error = %v, want ErrCorrupt", err)
	}
}

// TestLowOrderEphemeralRejected: an ephemeral key of low order makes
// every agreement the all-zero string, so anyone could unwrap every
// share; decryption must refuse it, also after a marshal round trip.
func TestLowOrderEphemeralRejected(t *testing.T) {
	auth := newTestAuthority(t)
	pol := policy.OrOfUsers([]string{"alice"})
	ct, err := Encrypt(auth.PublicKeys(pol.Leaves()), pol, []byte("x"), nil)
	if err != nil {
		t.Fatal(err)
	}
	alice := auth.IssueKey("alice", []string{"alice"})
	for name, point := range map[string]string{
		"zero":    "0000000000000000000000000000000000000000000000000000000000000000",
		"one":     "0100000000000000000000000000000000000000000000000000000000000000",
		"order 8": "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
	} {
		raw, err := hex.DecodeString(point)
		if err != nil {
			t.Fatal(err)
		}
		if ct.Ephemeral, err = ecdh.X25519().NewPublicKey(raw); err != nil {
			t.Fatal(err)
		}
		if _, err := Decrypt(alice, ct); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error = %v, want ErrCorrupt", name, err)
		}
		decoded, err := UnmarshalCiphertext(ct.Marshal())
		if err == nil {
			_, err = Decrypt(alice, decoded)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s after round trip: error = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestFreshSecretPerCiphertext(t *testing.T) {
	auth := newTestAuthority(t)
	pol := policy.OrOfUsers([]string{"alice"})
	pub := auth.PublicKeys(pol.Leaves())
	c1, err := Encrypt(pub, pol, []byte("same"), nil)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Encrypt(pub, pol, []byte("same"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(c1.Body, c2.Body) {
		t.Fatal("two encryptions produced identical bodies")
	}
	if c1.Ephemeral.Equal(c2.Ephemeral) {
		t.Fatal("two encryptions reused the ephemeral key")
	}
}

// TestEncryptionCostGrowsWithUsers sanity-checks the Experiment A.4 cost
// model: encryption with many leaves performs more work than with few.
// (The timing itself is benchmarked; here we only verify the structure.)
func TestEncryptionCostGrowsWithUsers(t *testing.T) {
	auth := newTestAuthority(t)
	for _, n := range []int{1, 10, 50} {
		users := make([]string, n)
		for i := range users {
			users[i] = fmt.Sprintf("user-%03d", i)
		}
		pol := policy.OrOfUsers(users)
		ct, err := Encrypt(auth.PublicKeys(pol.Leaves()), pol, []byte("x"), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ct.Wrapped) != n {
			t.Fatalf("wrapped share count = %d, want %d", len(ct.Wrapped), n)
		}
	}
}

// BenchmarkEncrypt seals under an OR-of-identities policy from an
// already-resolved bundle; us/leaf is the per-authorized-user cost that
// Experiment A.4's rekey delay is linear in.
func BenchmarkEncrypt(b *testing.B) {
	for _, n := range []int{1, 10, 100, 500} {
		b.Run(fmt.Sprintf("leaves=%d", n), func(b *testing.B) {
			auth := newTestAuthority(b)
			users := make([]string, n)
			for i := range users {
				users[i] = fmt.Sprintf("user-%04d", i)
			}
			pol := policy.OrOfUsers(users)
			pub := auth.PublicKeys(pol.Leaves())
			payload := make([]byte, 256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Encrypt(pub, pol, payload, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/float64(n), "us/leaf")
		})
	}
}

func BenchmarkDecryptOr500(b *testing.B) {
	auth := newTestAuthority(b)
	users := make([]string, 500)
	for i := range users {
		users[i] = fmt.Sprintf("user-%04d", i)
	}
	pol := policy.OrOfUsers(users)
	ct, err := Encrypt(auth.PublicKeys(pol.Leaves()), pol, make([]byte, 256), nil)
	if err != nil {
		b.Fatal(err)
	}
	key := auth.IssueKey("user-0000", []string{"user-0000"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decrypt(key, ct); err != nil {
			b.Fatal(err)
		}
	}
}
