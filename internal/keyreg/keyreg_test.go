package keyreg

import (
	"bytes"
	"crypto/rsa"
	"encoding/hex"
	"errors"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	ownerOnce sync.Once
	owner     *Owner
)

// sharedOwner returns a process-wide Owner; RSA keygen is slow, and the
// Owner itself is mutated only through Wind, which tests account for.
func newOwner(t testing.TB) *Owner {
	t.Helper()
	o, err := NewOwner(DefaultBits, nil)
	if err != nil {
		t.Fatalf("NewOwner: %v", err)
	}
	return o
}

func cachedOwner(t testing.TB) *Owner {
	t.Helper()
	ownerOnce.Do(func() {
		owner = newOwner(t)
	})
	return owner
}

func TestWindIncrementsVersion(t *testing.T) {
	o := newOwner(t)
	if got := o.Current().Version; got != 1 {
		t.Fatalf("initial version = %d, want 1", got)
	}
	s2 := o.Wind()
	if s2.Version != 2 {
		t.Fatalf("version after wind = %d, want 2", s2.Version)
	}
	if bytes.Equal(s2.Value, o.Current().Value) == false {
		t.Fatal("Wind return value disagrees with Current")
	}
}

// TestUnwindRecoversEarlierStates is the core key-regression property:
// a member holding state i derives states i-1, ..., 1 with the public
// key only, and they match what the owner produced.
// TestWindCRTMatchesFullExponent winds the same chain three ways — CRT,
// the textbook st^d mod N, and an owner stripped of its CRT values (the
// full-width fallback) — and all three must agree at every step, with
// each state unwinding to its predecessor.
func TestWindCRTMatchesFullExponent(t *testing.T) {
	o := newOwner(t)
	stripped := ownerFrom(&rsa.PrivateKey{PublicKey: o.priv.PublicKey, D: o.priv.D}, o.Current())
	for i := 0; i < 32; i++ {
		prev := o.Current()
		want := new(big.Int).Exp(new(big.Int).SetBytes(prev.Value), o.priv.D, o.priv.N)
		got := o.Wind()
		if !bytes.Equal(got.Value, padToModulus(want, o.priv.N)) {
			t.Fatalf("step %d: CRT wind differs from full exponentiation", i)
		}
		if fallback := stripped.Wind(); !bytes.Equal(fallback.Value, got.Value) || fallback.Version != got.Version {
			t.Fatalf("step %d: full-width fallback differs from CRT wind", i)
		}
		back, err := Unwind(o.Public(), got, prev.Version)
		if err != nil || !bytes.Equal(back.Value, prev.Value) {
			t.Fatalf("step %d: wound state does not unwind to its predecessor: %v", i, err)
		}
	}
}

func TestUnwindRecoversEarlierStates(t *testing.T) {
	o := newOwner(t)
	pub := o.Public()

	states := []State{o.Current()}
	for i := 0; i < 5; i++ {
		states = append(states, o.Wind())
	}
	newest := states[len(states)-1]

	for i, want := range states {
		got, err := Unwind(pub, newest, uint64(i+1))
		if err != nil {
			t.Fatalf("Unwind to version %d: %v", i+1, err)
		}
		if got.Version != want.Version || !bytes.Equal(got.Value, want.Value) {
			t.Fatalf("Unwind to version %d recovered wrong state", i+1)
		}
	}
}

func TestUnwindRefusesFutureStates(t *testing.T) {
	o := cachedOwner(t)
	cur := o.Current()
	if _, err := Unwind(o.Public(), cur, cur.Version+1); !errors.Is(err, ErrFutureState) {
		t.Fatalf("error = %v, want ErrFutureState", err)
	}
}

func TestUnwindRejectsVersionZero(t *testing.T) {
	o := cachedOwner(t)
	if _, err := Unwind(o.Public(), o.Current(), 0); err == nil {
		t.Fatal("version 0 expected error")
	}
}

func TestUnwindSameVersionIsIdentity(t *testing.T) {
	o := cachedOwner(t)
	cur := o.Current()
	got, err := Unwind(o.Public(), cur, cur.Version)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Value, cur.Value) {
		t.Fatal("unwinding to the same version changed the state")
	}
}

func TestStatesAreDistinct(t *testing.T) {
	o := newOwner(t)
	seen := map[string]bool{string(o.Current().Value): true}
	for i := 0; i < 5; i++ {
		s := o.Wind()
		if seen[string(s.Value)] {
			t.Fatalf("state at version %d repeats an earlier state", s.Version)
		}
		seen[string(s.Value)] = true
	}
}

func TestKeyDerivation(t *testing.T) {
	o := cachedOwner(t)
	s := o.Current()
	k1 := s.Key()
	k2 := s.Key()
	if k1 != k2 {
		t.Fatal("Key() not deterministic")
	}
	// Different versions with the same value must give different keys
	// (version is bound into the hash).
	altered := State{Version: s.Version + 1, Value: s.Value}
	if altered.Key() == k1 {
		t.Fatal("key ignores the version")
	}
	// The file key lives only in the array Key returns: no heap copy of
	// it is left for the garbage collector to keep.
	if n := testing.AllocsPerRun(100, func() { s.Key() }); n != 0 {
		t.Fatalf("Key allocates %v per call, want 0", n)
	}
}

func TestStateMarshalRoundTrip(t *testing.T) {
	o := cachedOwner(t)
	s := o.Current()
	got, err := UnmarshalState(s.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != s.Version || !bytes.Equal(got.Value, s.Value) {
		t.Fatal("state marshal round trip mismatch")
	}
}

func TestUnmarshalStateErrors(t *testing.T) {
	tests := []struct {
		name string
		give []byte
	}{
		{"empty", nil},
		{"truncated", []byte{1, 2, 3}},
		{"version zero", State{Version: 0, Value: []byte{1}}.Marshal()},
		{"empty value", State{Version: 1, Value: nil}.Marshal()},
		{"trailing bytes", append(State{Version: 1, Value: []byte{1}}.Marshal(), 0xFF)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := UnmarshalState(tt.give); !errors.Is(err, ErrBadState) {
				t.Fatalf("error = %v, want ErrBadState", err)
			}
		})
	}
}

func TestPublicMarshalRoundTrip(t *testing.T) {
	o := cachedOwner(t)
	p := o.Public()
	got, err := UnmarshalPublic(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.N.Cmp(p.N) != 0 || got.E.Cmp(p.E) != 0 {
		t.Fatal("public key round trip mismatch")
	}
}

func TestUnmarshalPublicErrors(t *testing.T) {
	if _, err := UnmarshalPublic(nil); err == nil {
		t.Fatal("empty input expected error")
	}
	if _, err := UnmarshalPublic([]byte{0x01, 0xAA}); err == nil {
		t.Fatal("truncated input expected error")
	}
}

// TestUnmarshalPublicRefusesDegenerateKeys: public derivation keys
// arrive in key-store blobs. An even N or E is not an RSA key, and with
// E = 1 every state unwinds to itself.
func TestUnmarshalPublicRefusesDegenerateKeys(t *testing.T) {
	p := cachedOwner(t).Public()
	for _, c := range []struct {
		name string
		n, e *big.Int
	}{
		{"even modulus", new(big.Int).Sub(p.N, big.NewInt(1)), p.E},
		{"exponent 1", p.N, big.NewInt(1)},
		{"even exponent", p.N, big.NewInt(65536)},
	} {
		if _, err := UnmarshalPublic(Public{N: c.n, E: c.e}.Marshal()); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestUnwindRefusesValueOutsideModulus: a key state wider than the
// modulus used to panic in padToModulus, and a value >= N was unwound
// without complaint. Both are malformed states.
func TestUnwindRefusesValueOutsideModulus(t *testing.T) {
	o := cachedOwner(t)
	cur := o.Current()
	pub := o.Public()
	wide := State{Version: cur.Version + 1, Value: append(bytes.Repeat([]byte{0xa5}, 8), cur.Value...)}
	n := State{Version: cur.Version + 1, Value: padToModulus(pub.N, pub.N)}
	for _, st := range []State{wide, n} {
		for _, target := range []uint64{st.Version, cur.Version} {
			if _, err := Unwind(pub, st, target); !errors.Is(err, ErrBadState) {
				t.Fatalf("%d-byte state to version %d: error = %v, want ErrBadState", len(st.Value), target, err)
			}
		}
	}
}

func TestNewOwnerTooSmall(t *testing.T) {
	if _, err := NewOwner(128, nil); err == nil {
		t.Fatal("tiny modulus expected error")
	}
}

func TestCurrentReturnsCopy(t *testing.T) {
	o := newOwner(t)
	s := o.Current()
	s.Value[0] ^= 0xFF
	if bytes.Equal(s.Value, o.Current().Value) {
		t.Fatal("Current() exposed internal state slice")
	}
}

// TestWindFixtureOnMathBig winds the committed owner on the math/big
// path — its key stripped of the CRT values the Montgomery kernel needs
// — and must reproduce the same committed states as TestWindKnownAnswer.
func TestWindFixtureOnMathBig(t *testing.T) {
	o := fixtureOwner(t)
	o = ownerFrom(&rsa.PrivateKey{PublicKey: o.priv.PublicKey, D: o.priv.D}, o.Current())
	want, err := os.ReadFile(filepath.Join("testdata", "winds.hex"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(string(want))
	for i, line := range lines {
		st := o.Current()
		if i > 0 {
			st = o.Wind()
		}
		if got := hex.EncodeToString(st.Marshal()); got != line {
			t.Fatalf("version %d differs from the committed fixture", st.Version)
		}
	}
}

func BenchmarkWind(b *testing.B) {
	o, err := NewOwner(DefaultBits, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Wind()
	}
}

func BenchmarkUnwindOneStep(b *testing.B) {
	o, err := NewOwner(DefaultBits, nil)
	if err != nil {
		b.Fatal(err)
	}
	o.Wind()
	newest := o.Current()
	pub := o.Public()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unwind(pub, newest, newest.Version-1); err != nil {
			b.Fatal(err)
		}
	}
}
