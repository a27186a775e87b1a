// Package abe implements ciphertext-policy attribute-based encryption
// with the interface and semantics REED needs, substituting a
// pairing-free construction for the Bethencourt–Sahai–Waters scheme the
// paper's prototype links against (bilinear pairings are not available in
// the Go standard library).
//
// Construction. An authority holds a master secret from which it derives
// one X25519 key pair (crypto/ecdh, RFC 7748) per attribute: the private
// scalar is the 32-byte x_a = HMAC-SHA256(master, "reed-abe-attr" ‖ a),
// clamped by X25519 itself, and y_a = X25519(x_a, 9) is its public key.
// Users receive the private scalars for their attributes ("private access
// key"); the public y_a values are published for encryptors. Encryption
// under an access tree:
//
//  1. draw a random secret s and share it down the tree — OR replicates,
//     AND is an n-of-n Shamir split, k-of-n is a Shamir split;
//  2. draw one ephemeral key pair (k, c1 = X25519(k, 9)), publish c1, and
//     XOR each leaf's share with the hashed-ElGamal mask
//     SHA-256("reed-abe-leaf" ‖ idx ‖ c1 ‖ y_a ‖ X25519(k, y_a));
//  3. encrypt the payload with AES-256-GCM under H(s), with the
//     marshaled policy as associated data.
//
// Decryption recovers leaf shares for held attributes via X25519(x_a, c1),
// recombines up the tree (Lagrange interpolation at threshold gates),
// and opens the payload. Decryption succeeds iff the user's attributes
// satisfy the tree.
//
// Security level and binding. Curve25519 gives ≈ 128-bit security. The
// mask binds the leaf's preorder position and the exact bytes of both
// public keys next to the shared secret, so a wrapped share cannot be
// moved to another slot, ciphertext or attribute, and the several
// encodings X25519 accepts for one point do not share a mask. The policy
// and the attribute *names* are not in the mask; the GCM tag over the
// marshaled policy authenticates them. A low-order ephemeral key makes
// every agreement zero and is rejected as ErrCorrupt.
//
// Fidelity to CP-ABE: (a) policy expressiveness is the same access-tree
// language; (b) only satisfying attribute sets decrypt, and colluding
// users cannot combine shares across *different* ciphertexts (each has a
// fresh s and k) — though unlike true CP-ABE, two users *can* pool their
// attribute scalars within one ciphertext, which is harmless in REED
// where every attribute is a unique user identity; (c) the cost model
// matches what Experiment A.4 measures: encryption is one scalar
// multiplication per leaf (linear in the number of authorized users),
// decryption of an OR-of-identities policy is a single one (constant).
package abe

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/binenc"
	"repro/internal/policy"
	"repro/internal/shamir"
)

var (
	// ErrNotAuthorized is returned when the private key's attributes do
	// not satisfy the ciphertext policy.
	ErrNotAuthorized = errors.New("abe: attributes do not satisfy policy")
	// ErrCorrupt is returned for malformed or tampered ciphertexts, and
	// for encoded keys whose group elements are not X25519-sized.
	ErrCorrupt = errors.New("abe: corrupt ciphertext")
)

// Authority issues attribute keys. It holds the master secret.
type Authority struct {
	master []byte
}

// NewAuthority creates an authority with a fresh master secret. If
// randSrc is nil, crypto/rand.Reader is used.
func NewAuthority(randSrc io.Reader) (*Authority, error) {
	if randSrc == nil {
		randSrc = rand.Reader
	}
	master := make([]byte, 32)
	if _, err := io.ReadFull(randSrc, master); err != nil {
		return nil, fmt.Errorf("abe: master secret: %w", err)
	}
	return &Authority{master: master}, nil
}

// attributeScalar derives the private scalar for an attribute:
// x_a = PRF(master, a). X25519 clamps it, so it is never zero.
func (a *Authority) attributeScalar(attr string) *ecdh.PrivateKey {
	mac := hmac.New(sha256.New, a.master)
	mac.Write([]byte("reed-abe-attr"))
	mac.Write([]byte(attr))
	x, err := ecdh.X25519().NewPrivateKey(mac.Sum(nil))
	if err != nil {
		// Only a FIPS-140-only runtime refuses a 32-byte X25519 seed,
		// and nothing in this package can work there.
		panic("abe: attribute scalar: " + err.Error())
	}
	return x
}

// PublicKeys bundles the public keys y_a = X25519(x_a, 9) for a set of
// attributes.
func (a *Authority) PublicKeys(attrs []string) PublicKeys {
	pk := PublicKeys{Keys: make(map[string]*ecdh.PublicKey, len(attrs))}
	for _, attr := range attrs {
		pk.Keys[attr] = a.attributeScalar(attr).PublicKey()
	}
	return pk
}

// IssueKey returns the private access key for a user holding the given
// attributes. In REED's usage attrs is the singleton {user identity}.
func (a *Authority) IssueKey(holder string, attrs []string) *PrivateKey {
	k := &PrivateKey{Holder: holder, Scalars: make(map[string]*ecdh.PrivateKey, len(attrs))}
	for _, attr := range attrs {
		k.Scalars[attr] = a.attributeScalar(attr)
	}
	return k
}

// PublicKeys carries per-attribute public keys for encryption.
type PublicKeys struct {
	Keys map[string]*ecdh.PublicKey
}

// PublicKeys returns the subset for the requested attributes, making a
// published key bundle usable wherever an authority is (it satisfies the
// client's PublicKeyDirectory without holding the master secret).
func (p PublicKeys) PublicKeys(attrs []string) PublicKeys {
	out := PublicKeys{Keys: make(map[string]*ecdh.PublicKey, len(attrs))}
	for _, a := range attrs {
		if k, ok := p.Keys[a]; ok {
			out.Keys[a] = k
		}
	}
	return out
}

// PrivateKey is a user's private access key.
type PrivateKey struct {
	Holder  string
	Scalars map[string]*ecdh.PrivateKey
}

// Attributes returns the attribute names this key holds.
func (k *PrivateKey) Attributes() map[string]bool {
	out := make(map[string]bool, len(k.Scalars))
	for a := range k.Scalars {
		out[a] = true
	}
	return out
}

// Ciphertext is an ABE ciphertext: the policy, the ephemeral public
// key, the wrapped leaf shares (in policy-preorder), and the GCM-
// protected body.
type Ciphertext struct {
	Policy    *policy.Node
	Ephemeral *ecdh.PublicKey // c1 = X25519(k, 9)
	Wrapped   [][shamir.SecretSize]byte
	Nonce     []byte
	Body      []byte
}

// Encrypt encrypts plaintext so that exactly the attribute sets
// satisfying pol can decrypt. pub must contain a public key for every
// leaf attribute. If randSrc is nil, crypto/rand.Reader is used.
func Encrypt(pub PublicKeys, pol *policy.Node, plaintext []byte, randSrc io.Reader) (*Ciphertext, error) {
	if randSrc == nil {
		randSrc = rand.Reader
	}
	if err := pol.Validate(); err != nil {
		return nil, err
	}

	secret, err := shamir.GenerateSecret(randSrc)
	if err != nil {
		return nil, err
	}

	// Share the secret down the tree; leaf shares in preorder, wrapped
	// in place below.
	var wrapped [][shamir.SecretSize]byte
	if err := shareDown(pol, secret, randSrc, &wrapped); err != nil {
		return nil, err
	}

	// One ephemeral key pair for the whole ciphertext. The seed is read
	// here, not by ecdh's GenerateKey, which consumes a random number of
	// bytes and would make a fixed randSrc irreproducible.
	seed := make([]byte, 32)
	if _, err := io.ReadFull(randSrc, seed); err != nil {
		return nil, fmt.Errorf("abe: ephemeral: %w", err)
	}
	k, err := ecdh.X25519().NewPrivateKey(seed)
	if err != nil {
		return nil, fmt.Errorf("abe: ephemeral: %w", err)
	}
	c1 := k.PublicKey()

	// Wrap each leaf share under X25519(k, y_a).
	for i, attr := range pol.Leaves() {
		y := pub.Keys[attr]
		if y == nil {
			return nil, fmt.Errorf("abe: missing public key for attribute %q", attr)
		}
		agreed, err := k.ECDH(y)
		if err != nil {
			return nil, fmt.Errorf("abe: public key for attribute %q: %w", attr, err)
		}
		mask := leafMask(agreed, i, c1, y)
		for j := range wrapped[i] {
			wrapped[i][j] ^= mask[j]
		}
	}

	// Body: AES-256-GCM under H(s).
	nonce := make([]byte, 12)
	if _, err := io.ReadFull(randSrc, nonce); err != nil {
		return nil, fmt.Errorf("abe: nonce: %w", err)
	}
	aead, err := bodyAEAD(secret)
	if err != nil {
		return nil, err
	}
	body := aead.Seal(nil, nonce, plaintext, pol.Marshal())

	return &Ciphertext{
		Policy:    pol,
		Ephemeral: c1,
		Wrapped:   wrapped,
		Nonce:     nonce,
		Body:      body,
	}, nil
}

// Decrypt recovers the plaintext if key's attributes satisfy the policy.
func Decrypt(key *PrivateKey, ct *Ciphertext) ([]byte, error) {
	if ct == nil || ct.Policy == nil || ct.Ephemeral == nil {
		return nil, ErrCorrupt
	}
	if err := ct.Policy.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(ct.Wrapped) != ct.Policy.CountLeaves() {
		return nil, fmt.Errorf("%w: share count mismatch", ErrCorrupt)
	}
	if !ct.Policy.Satisfied(key.Attributes()) {
		return nil, ErrNotAuthorized
	}

	leafIdx := 0
	secret, ok := recoverUp(ct.Policy, key, ct, &leafIdx)
	if !ok {
		// Satisfied() said yes, so this indicates a corrupt ciphertext
		// rather than missing attributes.
		return nil, fmt.Errorf("%w: share recovery failed", ErrCorrupt)
	}

	aead, err := bodyAEAD(secret)
	if err != nil {
		return nil, err
	}
	if len(ct.Nonce) != 12 {
		return nil, fmt.Errorf("%w: bad nonce", ErrCorrupt)
	}
	pt, err := aead.Open(nil, ct.Nonce, ct.Body, ct.Policy.Marshal())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return pt, nil
}

// shareDown assigns node values: the root gets the secret; an internal
// node Shamir-splits its value among its children; leaves append their
// value to out in preorder.
func shareDown(n *policy.Node, value [shamir.SecretSize]byte, randSrc io.Reader, out *[][shamir.SecretSize]byte) error {
	if n.Gate == policy.GateLeaf {
		*out = append(*out, value)
		return nil
	}
	k := n.EffectiveThreshold()
	shares, err := shamir.Split(value, len(n.Children), k, randSrc)
	if err != nil {
		return err
	}
	for i, c := range n.Children {
		if err := shareDown(c, shares[i].Y, randSrc, out); err != nil {
			return err
		}
	}
	return nil
}

// recoverUp walks the tree in the same preorder as shareDown, returning
// the node's value when recoverable with the held attributes.
func recoverUp(n *policy.Node, key *PrivateKey, ct *Ciphertext, leafIdx *int) ([shamir.SecretSize]byte, bool) {
	var zero [shamir.SecretSize]byte
	if n.Gate == policy.GateLeaf {
		idx := *leafIdx
		*leafIdx++
		x, held := key.Scalars[n.Attribute]
		if !held {
			return zero, false
		}
		agreed, err := x.ECDH(ct.Ephemeral)
		if err != nil {
			return zero, false // low-order ephemeral key
		}
		mask := leafMask(agreed, idx, ct.Ephemeral, x.PublicKey())
		share := ct.Wrapped[idx]
		for j := range share {
			share[j] ^= mask[j]
		}
		return share, true
	}

	need := n.EffectiveThreshold()
	var got []shamir.Share
	for i, c := range n.Children {
		v, ok := recoverUp(c, key, ct, leafIdx)
		if !ok {
			continue
		}
		got = append(got, shamir.Share{X: uint32(i + 1), Y: v})
	}
	if len(got) < need {
		return zero, false
	}
	combined, err := shamir.Combine(got[:need], need)
	if err != nil {
		return zero, false
	}
	return combined, true
}

// leafMask derives the XOR mask for leaf idx from the X25519 agreement
// and the two public keys of the exchange.
func leafMask(agreed []byte, idx int, ephemeral, attr *ecdh.PublicKey) [shamir.SecretSize]byte {
	h := sha256.New()
	h.Write([]byte("reed-abe-leaf"))
	var ib [4]byte
	binary.BigEndian.PutUint32(ib[:], uint32(idx))
	h.Write(ib[:])
	h.Write(ephemeral.Bytes())
	h.Write(attr.Bytes())
	h.Write(agreed)
	var out [shamir.SecretSize]byte
	h.Sum(out[:0])
	return out
}

// bodyAEAD builds the AES-256-GCM AEAD for the body key H(s).
func bodyAEAD(secret [shamir.SecretSize]byte) (cipher.AEAD, error) {
	h := sha256.New()
	h.Write([]byte("reed-abe-body"))
	h.Write(secret[:])
	block, err := aes.NewCipher(h.Sum(nil))
	if err != nil {
		return nil, fmt.Errorf("abe: body cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("abe: body aead: %w", err)
	}
	return aead, nil
}

// Marshal encodes the ciphertext.
func (c *Ciphertext) Marshal() []byte {
	w := binenc.NewWriter(512 + len(c.Body))
	w.WriteBytes(c.Policy.Marshal())
	w.WriteBytes(c.Ephemeral.Bytes())
	w.Uvarint(uint64(len(c.Wrapped)))
	for i := range c.Wrapped {
		w.Raw(c.Wrapped[i][:])
	}
	w.WriteBytes(c.Nonce)
	w.WriteBytes(c.Body)
	return w.Bytes()
}

// UnmarshalCiphertext decodes a ciphertext produced by Marshal.
func UnmarshalCiphertext(b []byte) (*Ciphertext, error) {
	r := binenc.NewReader(b)
	polBytes, err := r.ReadBytes()
	if err != nil {
		return nil, fmt.Errorf("%w: policy: %v", ErrCorrupt, err)
	}
	pol, err := policy.Unmarshal(polBytes)
	if err != nil {
		return nil, fmt.Errorf("%w: policy: %v", ErrCorrupt, err)
	}
	ephBytes, err := r.ReadBytes()
	if err != nil {
		return nil, fmt.Errorf("%w: ephemeral: %v", ErrCorrupt, err)
	}
	ephemeral, err := ecdh.X25519().NewPublicKey(ephBytes)
	if err != nil {
		return nil, fmt.Errorf("%w: ephemeral: %v", ErrCorrupt, err)
	}
	count, err := r.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: share count: %v", ErrCorrupt, err)
	}
	if count != uint64(pol.CountLeaves()) {
		return nil, fmt.Errorf("%w: share count mismatch", ErrCorrupt)
	}
	wrapped := make([][shamir.SecretSize]byte, count)
	for i := range wrapped {
		raw, err := r.ReadRaw(shamir.SecretSize)
		if err != nil {
			return nil, fmt.Errorf("%w: share %d: %v", ErrCorrupt, i, err)
		}
		copy(wrapped[i][:], raw)
	}
	nonce, err := r.ReadBytesCopy()
	if err != nil {
		return nil, fmt.Errorf("%w: nonce: %v", ErrCorrupt, err)
	}
	body, err := r.ReadBytesCopy()
	if err != nil {
		return nil, fmt.Errorf("%w: body: %v", ErrCorrupt, err)
	}
	if !r.Done() {
		return nil, fmt.Errorf("%w: trailing bytes", ErrCorrupt)
	}
	return &Ciphertext{
		Policy:    pol,
		Ephemeral: ephemeral,
		Wrapped:   wrapped,
		Nonce:     nonce,
		Body:      body,
	}, nil
}
