// Package oprf implements the oblivious pseudo-random function protocol
// REED uses for server-aided MLE key generation, following DupLESS: a
// blinded RSA signature with full-domain hashing.
//
// Protocol, for the key manager's RSA key (N, e, d) and a chunk
// fingerprint fp:
//
//  1. Client computes m = FDH(fp) mod N, draws a random blinding factor
//     r, and sends x = m * r^e mod N.
//  2. Key manager returns y = x^d mod N (= m^d * r mod N). It learns
//     nothing about fp: x is uniformly distributed.
//  3. Client unblinds s = y * r^{-1} mod N = m^d, verifies s^e == m, and
//     derives the MLE key as SHA-256(s).
//
// The output is deterministic in (fp, server key) — identical chunks get
// identical MLE keys, preserving deduplication — yet infeasible to
// compute without querying the key manager, which rate-limits requests
// to resist online brute force (internal/ratelimit).
package oprf

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"

	"repro/internal/rsacrt"
)

// DefaultBits is the paper's RSA modulus size for the key manager.
const DefaultBits = 1024

// KeySize is the derived MLE key size.
const KeySize = 32

var (
	// ErrVerifyFailed is returned when the unblinded signature fails
	// verification, indicating a misbehaving key manager.
	ErrVerifyFailed = errors.New("oprf: signature verification failed")
	// ErrBadElement is returned for protocol values outside [0, N).
	ErrBadElement = errors.New("oprf: element out of range")
)

// ServerKey is the key manager's OPRF secret: an RSA private key, and
// the same key prepared for the private operation (internal/rsacrt).
type ServerKey struct {
	priv *rsa.PrivateKey
	crt  *rsacrt.Key
}

func newServerKey(priv *rsa.PrivateKey) *ServerKey {
	return &ServerKey{priv: priv, crt: rsacrt.New(priv)}
}

// GenerateServerKey creates a fresh server key with the given modulus
// size. If randSrc is nil, crypto/rand.Reader is used.
func GenerateServerKey(bits int, randSrc io.Reader) (*ServerKey, error) {
	if randSrc == nil {
		randSrc = rand.Reader
	}
	if bits < 512 {
		return nil, fmt.Errorf("oprf: modulus size %d too small", bits)
	}
	priv, err := rsa.GenerateKey(randSrc, bits)
	if err != nil {
		return nil, fmt.Errorf("oprf: generate key: %w", err)
	}
	return newServerKey(priv), nil
}

// PublicParams returns the parameters clients need.
func (k *ServerKey) PublicParams() PublicParams {
	return PublicParams{
		N: new(big.Int).Set(k.priv.N),
		E: big.NewInt(int64(k.priv.E)),
	}
}

// Evaluate computes the blind signature y = x^d mod N on a blinded
// element. This is the only operation the key manager performs per
// request, and the computational bottleneck of MLE key generation
// (Experiment A.1). The exponentiation runs in CRT form on
// internal/rsacrt's Montgomery kernel for 1024-bit keys. The input is
// blinded by the client, so the server's timing reveals nothing about
// the fingerprint; rsacrt's package comment covers the exponent.
func (k *ServerKey) Evaluate(blinded []byte) ([]byte, error) {
	x := new(big.Int).SetBytes(blinded)
	if x.Cmp(k.priv.N) >= 0 {
		return nil, ErrBadElement
	}
	return padToModulus(k.crt.Exp(x), k.priv.N), nil
}

// PublicParams identifies the key manager's RSA public key.
type PublicParams struct {
	N *big.Int
	E *big.Int
}

// Validate checks the parameters are plausible.
func (p PublicParams) Validate() error {
	if p.N == nil || p.E == nil || p.N.Sign() <= 0 || p.E.Sign() <= 0 {
		return errors.New("oprf: invalid public params")
	}
	if p.N.BitLen() < 512 {
		return fmt.Errorf("oprf: modulus too small (%d bits)", p.N.BitLen())
	}
	return nil
}

// ModulusBytes returns the byte length of protocol elements.
func (p PublicParams) ModulusBytes() int { return (p.N.BitLen() + 7) / 8 }

// Marshal encodes the parameters.
func (p PublicParams) Marshal() []byte {
	nb := p.N.Bytes()
	eb := p.E.Bytes()
	out := make([]byte, 0, 8+len(nb)+len(eb))
	out = binary.BigEndian.AppendUint32(out, uint32(len(nb)))
	out = append(out, nb...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(eb)))
	out = append(out, eb...)
	return out
}

// UnmarshalPublicParams decodes parameters produced by Marshal.
func UnmarshalPublicParams(b []byte) (PublicParams, error) {
	var p PublicParams
	if len(b) < 4 {
		return p, errors.New("oprf: truncated params")
	}
	nLen := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint32(len(b)) < nLen {
		return p, errors.New("oprf: truncated modulus")
	}
	p.N = new(big.Int).SetBytes(b[:nLen])
	b = b[nLen:]
	if len(b) < 4 {
		return p, errors.New("oprf: truncated params")
	}
	eLen := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint32(len(b)) != eLen {
		return p, errors.New("oprf: truncated exponent")
	}
	p.E = new(big.Int).SetBytes(b)
	return p, p.Validate()
}

// Unblinder holds the client-side state needed to finish one protocol
// run: the blinding factor's inverse and the expected FDH image.
type Unblinder struct {
	rInv *big.Int
	m    *big.Int
}

// Blind maps fp into the group via FDH and blinds it. It returns the
// value to send to the key manager and the state needed by Finalize.
// Hot paths should prefer a Blinder, which precomputes the expensive
// per-run blinding material in the background.
func Blind(p PublicParams, fp []byte, randSrc io.Reader) ([]byte, *Unblinder, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	f, err := newFactor(p, randSrc)
	if err != nil {
		return nil, nil, err
	}
	b, u := blindWith(p, fdh(fp, p.N), f)
	return b, u, nil
}

// factor is one single-use blinding tuple: re = r^e mod N and
// rInv = r^{-1} mod N for a fresh uniform r coprime to N. Computing it
// (one random draw, one public-exponent exponentiation, one modular
// inverse) is the expensive part of Blind; everything else is a modular
// multiplication.
type factor struct {
	re   *big.Int
	rInv *big.Int
}

// newFactor draws a fresh blinding factor. randSrc nil means
// crypto/rand.Reader.
func newFactor(p PublicParams, randSrc io.Reader) (*factor, error) {
	if randSrc == nil {
		randSrc = rand.Reader
	}
	for {
		r, err := rand.Int(randSrc, p.N)
		if err != nil {
			return nil, fmt.Errorf("oprf: blinding factor: %w", err)
		}
		if r.Sign() == 0 {
			continue
		}
		// ModInverse doubles as the coprimality check: it returns nil
		// exactly when gcd(r, N) != 1 (in which case we just redraw —
		// hitting a factor of N by chance would also have factored the
		// key manager's modulus).
		rInv := new(big.Int).ModInverse(r, p.N)
		if rInv == nil {
			continue
		}
		re := r.Exp(r, p.E, p.N) // r is dead after this; reuse it
		return &factor{re: re, rInv: rInv}, nil
	}
}

// blindWith blinds the FDH image m with a precomputed factor: x = m *
// r^e mod N. The factor must be fresh — reusing one across protocol
// runs would let the key manager link the two blinded elements.
func blindWith(p PublicParams, m *big.Int, f *factor) ([]byte, *Unblinder) {
	x := new(big.Int).Mul(m, f.re)
	x.Mod(x, p.N)
	return padToModulus(x, p.N), &Unblinder{rInv: f.rInv, m: m}
}

// Finalize unblinds the key manager's response, verifies it, and derives
// the MLE key.
func Finalize(p PublicParams, u *Unblinder, response []byte) ([]byte, error) {
	if u == nil {
		return nil, errors.New("oprf: nil unblinder")
	}
	y := new(big.Int).SetBytes(response)
	if y.Cmp(p.N) >= 0 {
		return nil, ErrBadElement
	}
	s := new(big.Int).Mul(y, u.rInv)
	s.Mod(s, p.N)

	// Verify s^e == m: a malicious key manager cannot hand back garbage.
	check := new(big.Int).Exp(s, p.E, p.N)
	if check.Cmp(u.m) != 0 {
		return nil, ErrVerifyFailed
	}

	key := sha256.Sum256(padToModulus(s, p.N))
	return key[:], nil
}

// Derive computes the unblinded OPRF output directly with the server key,
// bypassing the protocol. The key manager process itself never needs
// this, but single-process tests and benchmarks use it as the ground
// truth the blinded protocol must match.
func (k *ServerKey) Derive(fp []byte) ([]byte, error) {
	m := fdh(fp, k.priv.N)
	s := new(big.Int).Exp(m, k.priv.D, k.priv.N)
	key := sha256.Sum256(padToModulus(s, k.priv.N))
	return key[:], nil
}

// fdh is a full-domain hash into Z_N: it expands fp with counter-mode
// SHA-256 to one byte more than the modulus, then reduces mod N, making
// the output statistically close to uniform.
func fdh(fp []byte, n *big.Int) *big.Int {
	need := (n.BitLen()+7)/8 + 1
	out := make([]byte, 0, need+sha256.Size)
	var counter [4]byte
	for i := uint32(0); len(out) < need; i++ {
		binary.BigEndian.PutUint32(counter[:], i)
		h := sha256.New()
		h.Write([]byte("reed-oprf-fdh"))
		h.Write(counter[:])
		h.Write(fp)
		out = h.Sum(out)
	}
	m := new(big.Int).SetBytes(out[:need])
	return m.Mod(m, n)
}

// padToModulus encodes v as a fixed-width big-endian slice matching the
// modulus size, so protocol messages have stable lengths.
func padToModulus(v *big.Int, n *big.Int) []byte {
	out := make([]byte, (n.BitLen()+7)/8)
	v.FillBytes(out)
	return out
}
