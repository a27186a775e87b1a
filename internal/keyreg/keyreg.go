// Package keyreg implements RSA-based key regression (Fu, Kamara, and
// Kohno, NDSS'06), the serial key-derivation scheme REED uses for lazy
// revocation.
//
// Key regression produces a sequence of key states st_1, st_2, ... with
// an asymmetric derivation property:
//
//   - the content owner, holding the RSA private key d ("private
//     derivation key"), winds forward:   st_{i+1} = st_i^d mod N;
//   - any member, holding only the public key e ("public derivation
//     key"), unwinds backward:           st_{i-1} = st_i^e mod N,
//
// because (st^d)^e = st mod N. A user given the current state can derive
// every earlier state (and hence every earlier file key), but no future
// state — so revoked users lose access to everything protected by states
// issued after their revocation, while authorized users need to hold only
// the newest state. REED's file key is the SHA-256 hash of the current
// key state.
package keyreg

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"

	"repro/internal/binenc"
	"repro/internal/rsacrt"
)

// DefaultBits is the default RSA modulus size for derivation keys.
const DefaultBits = 1024

// KeySize is the size of the file key derived from a state.
const KeySize = 32

var (
	// ErrFutureState is returned when asked to unwind to a version
	// newer than the supplied state.
	ErrFutureState = errors.New("keyreg: cannot derive a future state")
	// ErrBadState is returned for malformed state encodings.
	ErrBadState = errors.New("keyreg: malformed key state")
)

// State is one element of the regression sequence. Version counts from 1.
type State struct {
	Version uint64
	Value   []byte // fixed-width big-endian element of Z_N
}

// Key derives the symmetric file key from the state: H(version || value).
func (s State) Key() [KeySize]byte {
	h := sha256.New()
	var v [8]byte
	for i := 0; i < 8; i++ {
		v[i] = byte(s.Version >> (56 - 8*i))
	}
	h.Write(v[:])
	h.Write(s.Value)
	var out [KeySize]byte
	h.Sum(out[:0]) // into out itself: no heap copy of the key
	return out
}

// Marshal encodes the state.
func (s State) Marshal() []byte {
	w := binenc.NewWriter(16 + len(s.Value))
	w.Uint64(s.Version)
	w.WriteBytes(s.Value)
	return w.Bytes()
}

// UnmarshalState decodes a state produced by Marshal.
func UnmarshalState(b []byte) (State, error) {
	r := binenc.NewReader(b)
	version, err := r.Uint64()
	if err != nil {
		return State{}, fmt.Errorf("%w: %v", ErrBadState, err)
	}
	value, err := r.ReadBytesCopy()
	if err != nil {
		return State{}, fmt.Errorf("%w: %v", ErrBadState, err)
	}
	if !r.Done() {
		return State{}, fmt.Errorf("%w: trailing bytes", ErrBadState)
	}
	if version == 0 || len(value) == 0 {
		return State{}, ErrBadState
	}
	return State{Version: version, Value: value}, nil
}

// Owner holds the private derivation key and the newest state. Each REED
// user owns one Owner per file-owning identity; winding it is the
// rekeying step.
type Owner struct {
	priv    *rsa.PrivateKey
	crt     *rsacrt.Key    // priv prepared for Wind
	pub     *rsacrt.Public // the public half prepared for Unwind
	current State
}

func ownerFrom(priv *rsa.PrivateKey, current State) *Owner {
	pub := rsacrt.NewPublic(priv.N, big.NewInt(int64(priv.E)))
	return &Owner{priv: priv, crt: rsacrt.New(priv), pub: pub, current: current}
}

// NewOwner generates a fresh derivation key pair and the initial key
// state (version 1). If randSrc is nil, crypto/rand.Reader is used.
func NewOwner(bits int, randSrc io.Reader) (*Owner, error) {
	if randSrc == nil {
		randSrc = rand.Reader
	}
	if bits < 512 {
		return nil, fmt.Errorf("keyreg: modulus size %d too small", bits)
	}
	priv, err := rsa.GenerateKey(randSrc, bits)
	if err != nil {
		return nil, fmt.Errorf("keyreg: generate derivation key: %w", err)
	}
	st, err := rand.Int(randSrc, priv.N)
	if err != nil {
		return nil, fmt.Errorf("keyreg: initial state: %w", err)
	}
	return ownerFrom(priv, State{Version: 1, Value: padToModulus(st, priv.N)}), nil
}

// Current returns the newest state.
func (o *Owner) Current() State {
	return State{Version: o.current.Version, Value: append([]byte(nil), o.current.Value...)}
}

// Wind advances to the next state using the private derivation key and
// returns it. This is the owner-side rekeying operation. The
// exponentiation runs in CRT form (internal/rsacrt), on its Montgomery
// kernel for 1024-bit keys and full-width for a key without CRT values.
func (o *Owner) Wind() State {
	v := new(big.Int).SetBytes(o.current.Value)
	next := o.crt.Exp(v)
	o.current = State{
		Version: o.current.Version + 1,
		Value:   padToModulus(next, o.priv.N),
	}
	return o.Current()
}

// Public returns the public derivation key members use to unwind.
func (o *Owner) Public() Public {
	return Public{
		N:   new(big.Int).Set(o.priv.N),
		E:   big.NewInt(int64(o.priv.E)),
		pub: o.pub,
	}
}

// Public is the public derivation key.
//
// Owner.Public and UnmarshalPublic also prepare it for Unwind
// (rsacrt.NewPublic), which runs on the Montgomery kernel for 1024-bit
// keys. A Public written as a struct literal carries no prepared key and
// unwinds on math/big, to the same states.
type Public struct {
	N *big.Int
	E *big.Int

	pub *rsacrt.Public // nil in a struct literal
}

// Validate checks the key is plausible: N and E odd, E at least 3. With
// E = 1 every state would unwind to itself.
func (p Public) Validate() error {
	if p.N == nil || p.E == nil || p.N.Sign() <= 0 || p.E.Sign() <= 0 {
		return errors.New("keyreg: invalid public derivation key")
	}
	if p.N.Bit(0) == 0 || p.E.Bit(0) == 0 || p.E.Cmp(big.NewInt(3)) < 0 {
		return errors.New("keyreg: public derivation key needs an odd modulus and an odd exponent of at least 3")
	}
	return nil
}

// Marshal encodes the public derivation key.
func (p Public) Marshal() []byte {
	w := binenc.NewWriter(16)
	w.WriteBytes(p.N.Bytes())
	w.WriteBytes(p.E.Bytes())
	return w.Bytes()
}

// UnmarshalPublic decodes a public derivation key.
func UnmarshalPublic(b []byte) (Public, error) {
	r := binenc.NewReader(b)
	nb, err := r.ReadBytes()
	if err != nil {
		return Public{}, fmt.Errorf("keyreg: unmarshal public: %w", err)
	}
	eb, err := r.ReadBytes()
	if err != nil {
		return Public{}, fmt.Errorf("keyreg: unmarshal public: %w", err)
	}
	p := Public{N: new(big.Int).SetBytes(nb), E: new(big.Int).SetBytes(eb)}
	if err := p.Validate(); err != nil {
		return p, err
	}
	p.pub = rsacrt.NewPublic(p.N, p.E)
	return p, nil
}

// Unwind derives the state at the target version from a newer (or equal)
// state using only the public derivation key. It returns ErrFutureState
// if target exceeds the supplied state's version, and ErrBadState for a
// state value that is not an element of Z_N (longer than the modulus, or
// not below N).
func Unwind(p Public, from State, target uint64) (State, error) {
	if err := p.Validate(); err != nil {
		return State{}, err
	}
	if target == 0 {
		return State{}, fmt.Errorf("%w: version 0", ErrBadState)
	}
	if target > from.Version {
		return State{}, fmt.Errorf("%w: have version %d, want %d", ErrFutureState, from.Version, target)
	}
	v := new(big.Int).SetBytes(from.Value)
	if len(from.Value) > (p.N.BitLen()+7)/8 || v.Cmp(p.N) >= 0 {
		return State{}, fmt.Errorf("%w: value outside Z_N", ErrBadState)
	}
	pub := p.pub
	if pub == nil {
		pub = &rsacrt.Public{N: p.N, E: p.E}
	}
	for ver := from.Version; ver > target; ver-- {
		v = pub.Exp(v)
	}
	return State{Version: target, Value: padToModulus(v, p.N)}, nil
}

func padToModulus(v, n *big.Int) []byte {
	out := make([]byte, (n.BitLen()+7)/8)
	v.FillBytes(out)
	return out
}
