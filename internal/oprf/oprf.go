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
	pub  *rsacrt.Public // the public half, prepared once for PublicParams
}

func newServerKey(priv *rsa.PrivateKey) *ServerKey {
	e := big.NewInt(int64(priv.E))
	return &ServerKey{priv: priv, crt: rsacrt.New(priv), pub: rsacrt.NewPublic(priv.N, e)}
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

// PublicParams returns the parameters clients need, prepared for the
// client's arithmetic.
func (k *ServerKey) PublicParams() PublicParams {
	return PublicParams{
		N:   new(big.Int).Set(k.priv.N),
		E:   big.NewInt(int64(k.priv.E)),
		pub: k.pub,
	}
}

// Evaluate computes the blind signature y = x^d mod N on a blinded
// element. It is EvaluateBatch of one.
func (k *ServerKey) Evaluate(blinded []byte) ([]byte, error) {
	ys, err := k.EvaluateBatch([][]byte{blinded})
	if err != nil {
		return nil, err
	}
	return ys[0], nil
}

// EvaluateBatch computes the blind signature y = x^d mod N on every
// blinded element. This is the only operation the key manager performs
// per request, and the computational bottleneck of MLE key generation
// (Experiment A.1). It checks every element is below N before it
// exponentiates any, and names the first that is not. The
// exponentiations run in CRT form on internal/rsacrt's Montgomery
// kernels for 1024-bit keys, several elements at a time where the CPU
// allows. The inputs are blinded by the client, so the server's timing
// reveals nothing about the fingerprints; rsacrt's package comment
// covers the exponent.
func (k *ServerKey) EvaluateBatch(blinded [][]byte) ([][]byte, error) {
	xs := make([]*big.Int, len(blinded))
	for i, b := range blinded {
		xs[i] = new(big.Int).SetBytes(b)
		if xs[i].Cmp(k.priv.N) >= 0 {
			return nil, fmt.Errorf("%w (element %d)", ErrBadElement, i)
		}
	}
	ys := k.crt.ExpBatch(xs)
	out := make([][]byte, len(ys))
	for i, y := range ys {
		out[i] = padToModulus(y, k.priv.N)
	}
	return out, nil
}

// PublicParams identifies the key manager's RSA public key.
//
// ServerKey.PublicParams and UnmarshalPublicParams also prepare the key
// for the client's arithmetic (rsacrt.NewPublic), which runs on the
// Montgomery kernel for the paper's 1024-bit keys. A PublicParams
// written as a struct literal carries no prepared key: it computes the
// same values on math/big.
type PublicParams struct {
	N *big.Int
	E *big.Int

	pub *rsacrt.Public // nil in a struct literal
}

// Validate checks the parameters are plausible: N odd and at least 512
// bits, E odd and at least 3. E = 1 would make the key manager's answer
// the blinded element itself, so every "server-aided" key could be
// computed offline; an even E is not an RSA exponent.
func (p PublicParams) Validate() error {
	if p.N == nil || p.E == nil || p.N.Sign() <= 0 || p.E.Sign() <= 0 {
		return errors.New("oprf: invalid public params")
	}
	if p.N.BitLen() < 512 {
		return fmt.Errorf("oprf: modulus too small (%d bits)", p.N.BitLen())
	}
	if p.N.Bit(0) == 0 {
		return errors.New("oprf: even modulus")
	}
	if p.E.Bit(0) == 0 || p.E.Cmp(big.NewInt(3)) < 0 {
		return fmt.Errorf("oprf: public exponent %v is not odd and at least 3", p.E)
	}
	return nil
}

// arith returns the key prepared for the client's arithmetic; a struct
// literal gets an unprepared one, which runs math/big.
func (p PublicParams) arith() *rsacrt.Public {
	if p.pub != nil {
		return p.pub
	}
	return &rsacrt.Public{N: p.N, E: p.E}
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
	if err := p.Validate(); err != nil {
		return p, err
	}
	p.pub = rsacrt.NewPublic(p.N, p.E)
	return p, nil
}

// Unblinder holds the client-side state needed to finish one protocol
// run: the blinding factor's inverse and the expected FDH image.
type Unblinder struct {
	rInv *big.Int
	m    *big.Int
}

// Blind maps fp into the group via FDH and blinds it. It returns the
// value to send to the key manager and the state needed by Finalize. It
// is BlindBatch of one.
func Blind(p PublicParams, fp []byte, randSrc io.Reader) ([]byte, *Unblinder, error) {
	blinded, us, err := BlindBatch(p, [][]byte{fp}, randSrc)
	if err != nil {
		return nil, nil, err
	}
	return blinded[0], us[0], nil
}

// BlindBatch blinds every fingerprint in fps, drawing one fresh blinding
// factor r per fingerprint from randSrc (nil: crypto/rand.Reader), in
// order. It returns the elements to send to the key manager and the
// state Finalize needs for each. rᵉ and m·rᵉ run through rsacrt's batch
// calls, eight elements at a time where the CPU allows.
//
// The factors are inverted together, with one modular inversion for the
// batch (Montgomery's trick; see invertBatch). If the product shares a
// factor with N — some r hit a prime of the key manager's modulus, which
// would also factor it — the batch falls back to inverting each r on its
// own and redrawing any r without an inverse. A batch of one therefore
// reads randSrc in the same order as a draw that inverts each r as it
// goes; the committed blinding fixtures pin that order.
//
// Each factor is used once: reuse across protocol runs would let the key
// manager link the blinded elements.
func BlindBatch(p PublicParams, fps [][]byte, randSrc io.Reader) ([][]byte, []*Unblinder, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if randSrc == nil {
		randSrc = rand.Reader
	}
	pub := p.arith()
	rs := make([]*big.Int, len(fps))
	for i := range rs {
		r, err := drawFactor(p.N, randSrc)
		if err != nil {
			return nil, nil, err
		}
		rs[i] = r
	}
	rInvs := invertBatch(pub, rs)
	if rInvs == nil {
		var err error
		if rInvs, err = invertEach(p.N, rs, randSrc); err != nil {
			return nil, nil, err
		}
	}
	ms := make([]*big.Int, len(fps))
	for i, fp := range fps {
		ms[i] = fdh(fp, p.N)
	}
	xs := pub.MulBatch(ms, pub.ExpBatch(rs)) // x = m * r^e mod N
	blinded := make([][]byte, len(fps))
	us := make([]*Unblinder, len(fps))
	for i, x := range xs {
		blinded[i] = padToModulus(x, p.N)
		us[i] = &Unblinder{rInv: rInvs[i], m: ms[i]}
	}
	return blinded, us, nil
}

// drawFactor draws a uniform nonzero r < N.
func drawFactor(n *big.Int, randSrc io.Reader) (*big.Int, error) {
	for {
		r, err := rand.Int(randSrc, n)
		if err != nil {
			return nil, fmt.Errorf("oprf: blinding factor: %w", err)
		}
		if r.Sign() != 0 {
			return r, nil
		}
	}
}

// chains is how many interleaved chains invertBatch runs: one per lane
// of rsacrt's batch kernel.
const chains = 8

// invertBatch returns rᵢ⁻¹ mod N for every rᵢ with one ModInverse, or
// nil when their product has no inverse. It is Montgomery's trick run as
// eight interleaved chains, element i in chain i mod 8, so each step of
// the prefix products and of the walk back is one MulBatch over eight
// elements; the eight chain products are inverted by the trick again,
// as one chain.
func invertBatch(pub *rsacrt.Public, rs []*big.Int) []*big.Int {
	return invertChains(pub, rs, chains)
}

// invertChains is invertBatch over w interleaved chains.
func invertChains(pub *rsacrt.Public, rs []*big.Int, w int) []*big.Int {
	n := len(rs)
	if n == 0 {
		return []*big.Int{}
	}
	w = min(w, n)
	// prefix[i] = rᵢ·rᵢ₋w·rᵢ₋₂w··· mod N, chain i mod w up to element i.
	prefix := make([]*big.Int, n)
	copy(prefix, rs[:w])
	for lo := w; lo < n; lo += w {
		hi := min(lo+w, n)
		copy(prefix[lo:hi], pub.MulBatch(prefix[lo-w:hi-w], rs[lo:hi]))
	}

	// inv[c] = (chain c's product)⁻¹. The last w prefixes are the w chain
	// products, element n-w+k closing chain (n-w+k) mod w.
	inv := make([]*big.Int, w)
	if w == 1 {
		if inv[0] = new(big.Int).ModInverse(prefix[n-1], pub.N); inv[0] == nil {
			return nil
		}
	} else {
		tops := invertChains(pub, prefix[n-w:], 1)
		if tops == nil {
			return nil
		}
		for k, v := range tops {
			inv[(n-w+k)%w] = v
		}
	}

	// Walk back one row of w elements at a time. For element i = lo+c,
	// inv[c] = (prefix[i])⁻¹, so rᵢ⁻¹ = inv[c]·prefix[i-w], and
	// inv[c]·rᵢ = (prefix[i-w])⁻¹ is the chain's next inverse. Both
	// products of a row go in one MulBatch.
	out := make([]*big.Int, n)
	for lo := (n - 1) / w * w; lo > 0; lo -= w {
		k := min(lo+w, n) - lo
		prod := pub.MulBatch(append(inv[:k:k], inv[:k]...), append(prefix[lo-w:lo-w+k:lo-w+k], rs[lo:lo+k]...))
		copy(out[lo:], prod[:k])
		copy(inv, prod[k:])
	}
	copy(out, inv)
	return out
}

// invertEach inverts every rs[i] on its own, replacing any r that has no
// inverse with a fresh draw. ModInverse doubles as the coprimality
// check: it returns nil exactly when gcd(r, N) != 1.
func invertEach(n *big.Int, rs []*big.Int, randSrc io.Reader) ([]*big.Int, error) {
	out := make([]*big.Int, len(rs))
	for i := range rs {
		for {
			if out[i] = new(big.Int).ModInverse(rs[i], n); out[i] != nil {
				break
			}
			r, err := drawFactor(n, randSrc)
			if err != nil {
				return nil, err
			}
			rs[i] = r
		}
	}
	return out, nil
}

// Finalize unblinds the key manager's response, verifies it, and derives
// the MLE key. It is FinalizeBatch of one.
func Finalize(p PublicParams, u *Unblinder, response []byte) ([]byte, error) {
	keys, err := FinalizeBatch(p, []*Unblinder{u}, [][]byte{response})
	if err != nil {
		return nil, err
	}
	return keys[0], nil
}

// FinalizeBatch unblinds every response with its unblinder, verifies it,
// and derives the MLE keys, in order. It checks every unblinder is set
// and every response is below N before it exponentiates any, and names
// the first that is not; a failed verification names its element too.
// s = y·r⁻¹ and the check sᵉ == m run through rsacrt's batch calls.
func FinalizeBatch(p PublicParams, us []*Unblinder, responses [][]byte) ([][]byte, error) {
	if len(us) != len(responses) {
		return nil, fmt.Errorf("oprf: %d unblinders for %d responses", len(us), len(responses))
	}
	ys := make([]*big.Int, len(us))
	rInvs := make([]*big.Int, len(us))
	for i, u := range us {
		if u == nil {
			return nil, fmt.Errorf("oprf: nil unblinder (element %d)", i)
		}
		ys[i] = new(big.Int).SetBytes(responses[i])
		if ys[i].Cmp(p.N) >= 0 {
			return nil, fmt.Errorf("%w (element %d)", ErrBadElement, i)
		}
		rInvs[i] = u.rInv
	}
	pub := p.arith()
	ss := pub.MulBatch(ys, rInvs)

	// Verify s^e == m: a malicious key manager cannot hand back garbage.
	keys := make([][]byte, len(ss))
	for i, se := range pub.ExpBatch(ss) {
		if se.Cmp(us[i].m) != 0 {
			return nil, fmt.Errorf("%w (element %d)", ErrVerifyFailed, i)
		}
		key := sha256.Sum256(padToModulus(ss[i], p.N))
		keys[i] = key[:]
	}
	return keys, nil
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
