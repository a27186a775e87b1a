package oprf

import (
	"bytes"
	"crypto/rsa"
	"errors"
	"math/big"
	"strings"
	"sync"
	"testing"
)

// testServerKey is generated once; RSA keygen dominates test time
// otherwise.
var (
	testKeyOnce sync.Once
	testKey     *ServerKey
)

func serverKey(t testing.TB) *ServerKey {
	t.Helper()
	testKeyOnce.Do(func() {
		k, err := GenerateServerKey(DefaultBits, nil)
		if err != nil {
			t.Fatalf("generate server key: %v", err)
		}
		testKey = k
	})
	return testKey
}

func TestProtocolRoundTrip(t *testing.T) {
	k := serverKey(t)
	p := k.PublicParams()
	fp := []byte("fingerprint-of-a-chunk")

	blinded, u, err := Blind(p, fp, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := k.Evaluate(blinded)
	if err != nil {
		t.Fatal(err)
	}
	key, err := Finalize(p, u, resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(key) != KeySize {
		t.Fatalf("key length = %d, want %d", len(key), KeySize)
	}

	// The protocol output must equal the direct (unblinded) derivation.
	direct, err := k.Derive(fp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(key, direct) {
		t.Fatal("blinded protocol output differs from direct derivation")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	k := serverKey(t)
	p := k.PublicParams()
	fp := []byte("same-chunk")

	run := func() []byte {
		blinded, u, err := Blind(p, fp, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := k.Evaluate(blinded)
		if err != nil {
			t.Fatal(err)
		}
		key, err := Finalize(p, u, resp)
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("two protocol runs for the same fingerprint derived different keys")
	}
}

func TestBlindingHidesFingerprint(t *testing.T) {
	// Two blindings of the same fingerprint must look unrelated: the
	// key manager cannot link requests to content.
	k := serverKey(t)
	p := k.PublicParams()
	fp := []byte("hidden")
	b1, _, err := Blind(p, fp, nil)
	if err != nil {
		t.Fatal(err)
	}
	b2, _, err := Blind(p, fp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b1, b2) {
		t.Fatal("two blindings of the same fingerprint are identical")
	}
}

func TestDistinctFingerprintsDistinctKeys(t *testing.T) {
	k := serverKey(t)
	k1, err := k.Derive([]byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	k2, err := k.Derive([]byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(k1, k2) {
		t.Fatal("distinct fingerprints derived identical keys")
	}
}

func TestFinalizeDetectsTamperedResponse(t *testing.T) {
	k := serverKey(t)
	p := k.PublicParams()
	blinded, u, err := Blind(p, []byte("fp"), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := k.Evaluate(blinded)
	if err != nil {
		t.Fatal(err)
	}
	resp[0] ^= 0x01
	if _, err := Finalize(p, u, resp); !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("error = %v, want ErrVerifyFailed", err)
	}
}

func TestEvaluateRejectsOutOfRange(t *testing.T) {
	k := serverKey(t)
	tooBig := new(big.Int).Add(k.PublicParams().N, big.NewInt(1))
	if _, err := k.Evaluate(tooBig.Bytes()); !errors.Is(err, ErrBadElement) {
		t.Fatalf("error = %v, want ErrBadElement", err)
	}
}

// TestEvaluateBatchRejectsBeforeExponentiating puts N at index 5 of a
// batch: EvaluateBatch must refuse the whole batch and name that index.
func TestEvaluateBatchRejectsBeforeExponentiating(t *testing.T) {
	k := serverKey(t)
	n := k.PublicParams().N
	batch := make([][]byte, 9)
	for i := range batch {
		batch[i] = big.NewInt(int64(i)).Bytes()
	}
	batch[5] = n.Bytes()
	batch[7] = new(big.Int).Lsh(n, 1).Bytes()
	out, err := k.EvaluateBatch(batch)
	if !errors.Is(err, ErrBadElement) || out != nil {
		t.Fatalf("EvaluateBatch = %d results, %v; want none and ErrBadElement", len(out), err)
	}
	if !strings.Contains(err.Error(), "element 5") {
		t.Fatalf("error %q does not name element 5", err)
	}
	if out, err := k.EvaluateBatch(nil); err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %d results, %v", len(out), err)
	}
}

func TestFinalizeRejectsOutOfRange(t *testing.T) {
	k := serverKey(t)
	p := k.PublicParams()
	_, u, err := Blind(p, []byte("fp"), nil)
	if err != nil {
		t.Fatal(err)
	}
	tooBig := new(big.Int).Add(p.N, big.NewInt(1))
	if _, err := Finalize(p, u, tooBig.Bytes()); !errors.Is(err, ErrBadElement) {
		t.Fatalf("error = %v, want ErrBadElement", err)
	}
}

func TestFinalizeNilUnblinder(t *testing.T) {
	k := serverKey(t)
	if _, err := Finalize(k.PublicParams(), nil, []byte{1}); err == nil {
		t.Fatal("nil unblinder expected error")
	}
}

func TestPublicParamsMarshalRoundTrip(t *testing.T) {
	k := serverKey(t)
	p := k.PublicParams()
	got, err := UnmarshalPublicParams(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.N.Cmp(p.N) != 0 || got.E.Cmp(p.E) != 0 {
		t.Fatal("params round trip mismatch")
	}
}

func TestUnmarshalPublicParamsErrors(t *testing.T) {
	tests := []struct {
		name string
		give []byte
	}{
		{"empty", nil},
		{"short header", []byte{0, 0}},
		{"truncated modulus", []byte{0, 0, 0, 10, 1, 2}},
		{"missing exponent", []byte{0, 0, 0, 1, 42}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := UnmarshalPublicParams(tt.give); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

// TestUnmarshalPublicParamsRefusesDegenerateKeys: the parameters arrive
// from the key manager. With E = 1 its answer is the blinded element
// itself, Finalize's check passes, and every "server-aided" key is
// SHA-256(FDH(fp)), computable offline; an even N or E is not an RSA key
// (and Montgomery arithmetic needs N odd).
func TestUnmarshalPublicParamsRefusesDegenerateKeys(t *testing.T) {
	p := serverKey(t).PublicParams()
	for _, c := range []struct {
		name string
		n, e *big.Int
	}{
		{"even modulus", new(big.Int).Sub(p.N, big.NewInt(1)), p.E},
		{"exponent 1", p.N, big.NewInt(1)},
		{"even exponent", p.N, big.NewInt(65536)},
	} {
		if _, err := UnmarshalPublicParams(PublicParams{N: c.n, E: c.e}.Marshal()); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := UnmarshalPublicParams(PublicParams{N: p.N, E: big.NewInt(3)}.Marshal()); err != nil {
		t.Fatalf("exponent 3 refused: %v", err)
	}
}

func TestGenerateServerKeyTooSmall(t *testing.T) {
	if _, err := GenerateServerKey(256, nil); err == nil {
		t.Fatal("256-bit modulus expected error")
	}
}

func TestFDHUniformish(t *testing.T) {
	// FDH outputs for distinct inputs should differ and lie in [0, N).
	k := serverKey(t)
	n := k.PublicParams().N
	seen := make(map[string]bool)
	for i := 0; i < 64; i++ {
		m := fdh([]byte{byte(i)}, n)
		if m.Cmp(n) >= 0 || m.Sign() < 0 {
			t.Fatalf("fdh output out of range for input %d", i)
		}
		s := m.String()
		if seen[s] {
			t.Fatalf("fdh collision at input %d", i)
		}
		seen[s] = true
	}
}

// TestEvaluateFixtureOnMathBig evaluates the known-answer elements on the
// math/big path — the committed key stripped of the CRT values the
// Montgomery kernel needs — and must write the same committed bytes as
// TestEvaluateKnownAnswer.
func TestEvaluateFixtureOnMathBig(t *testing.T) {
	k := fixtureKey(t)
	k = newServerKey(&rsa.PrivateKey{PublicKey: k.priv.PublicKey, D: k.priv.D})
	var got [][]byte
	for _, x := range fixtureElements(k.PublicParams().N) {
		y, err := k.Evaluate(x)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, y)
	}
	checkLines(t, "evaluate.hex", got)
}

func BenchmarkEvaluate(b *testing.B) {
	k := serverKey(b)
	p := k.PublicParams()
	blinded, _, err := Blind(p, []byte("bench"), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Evaluate(blinded); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateBatch is BenchmarkEvaluate in a batch of 1024, the
// key manager's request size; ns/op is per element.
func BenchmarkEvaluateBatch(b *testing.B) {
	k := serverKey(b)
	blinded, _, err := BlindBatch(k.PublicParams(), batchFingerprints(1024), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i += len(blinded) {
		if _, err := k.EvaluateBatch(blinded[:min(len(blinded), b.N-i)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClientBlindFinalize(b *testing.B) {
	k := serverKey(b)
	p := k.PublicParams()
	for i := 0; i < b.N; i++ {
		blinded, u, err := Blind(p, []byte("bench"), nil)
		if err != nil {
			b.Fatal(err)
		}
		resp, err := k.Evaluate(blinded)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Finalize(p, u, resp); err != nil {
			b.Fatal(err)
		}
	}
}
