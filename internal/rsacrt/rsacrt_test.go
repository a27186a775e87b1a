package rsacrt

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"math/big"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// paths runs f once on each private-key path this machine has: ammX8,
// montMul512 and math/big.
func paths(t *testing.T, f func(t *testing.T)) {
	for _, path := range Paths() {
		t.Run(path, func(t *testing.T) {
			ForcePath(t, path)
			f(t)
		})
	}
}

// TestExpMatchesFullExponent checks Garner recombination, and the
// full-width path taken by a key stripped of its CRT values, against the
// textbook x^d mod N for many inputs, including the branch where
// m1 < m2, on both the kernel and the math/big path.
func TestExpMatchesFullExponent(t *testing.T) {
	priv, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	paths(t, func(t *testing.T) {
		k := New(priv)
		if KernelEnabled(k) != useKernel || IFMAEnabled(k) != useIFMA {
			t.Fatalf("kernel prepared = %v (IFMA %v), want %v (IFMA %v)", KernelEnabled(k), IFMAEnabled(k), useKernel, useIFMA)
		}
		stripped := New(&rsa.PrivateKey{PublicKey: priv.PublicKey, D: priv.D})
		nm1 := new(big.Int).Sub(priv.N, big.NewInt(1))
		inputs := []*big.Int{big.NewInt(0), big.NewInt(1), nm1, priv.Primes[0], priv.Primes[1]}
		for i := 0; i < 64; i++ {
			h := sha256.Sum256([]byte{byte(i)})
			x := new(big.Int).SetBytes(h[:])
			inputs = append(inputs, x.Exp(x, big.NewInt(5), priv.N)) // spread over [0, N)
		}
		for i, x := range inputs {
			want := new(big.Int).Exp(x, priv.D, priv.N)
			if got := k.Exp(x); got.Cmp(want) != 0 {
				t.Fatalf("CRT result differs from full exponentiation for input %d", i)
			}
			if got := stripped.Exp(x); got.Cmp(want) != 0 {
				t.Fatalf("full-width fallback differs from full exponentiation for input %d", i)
			}
		}
	})
}

// TestKernelOnlyFor512BitPrimes pins the dispatch rule: a 2048-bit key
// (1024-bit primes) and a key without CRT values stay on math/big.
func TestKernelOnlyFor512BitPrimes(t *testing.T) {
	priv, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if KernelEnabled(New(priv)) {
		t.Fatal("2048-bit key prepared for the 512-bit kernel")
	}
	if KernelEnabled(New(&rsa.PrivateKey{PublicKey: priv.PublicKey, D: priv.D})) {
		t.Fatal("key without CRT values prepared for the kernel")
	}
	x := big.NewInt(12345)
	if got, want := New(priv).Exp(x), new(big.Int).Exp(x, priv.D, priv.N); got.Cmp(want) != 0 {
		t.Fatal("2048-bit CRT result differs from full exponentiation")
	}
}

// testPrimes are committed 512-bit primes: a random one, the largest
// below 2⁵¹² and the smallest above 2⁵¹¹, whose limbs stress the
// kernel's carries and final subtraction from both ends.
func testPrimes() []*big.Int {
	random, _ := new(big.Int).SetString("dc6dffd2d2e31ed2c92af4689f15c07f76d16e226e45829d4f967feb4a1720128b7b529491f7f1218ae3c87ad40dffd781020a7307065a98947f8a46fb1bbceb", 16)
	top := new(big.Int).Lsh(big.NewInt(1), 512)
	bottom := new(big.Int).Lsh(big.NewInt(1), 511)
	return []*big.Int{
		random,
		top.Sub(top, big.NewInt(569)),
		bottom.Add(bottom, big.NewInt(111)),
	}
}

// checkPrimeExp compares the kernels' x^e mod p with big.Int.Exp:
// montMul512's, and ammX8's with p in all eight lanes.
func checkPrimeExp(t *testing.T, p, x, e *big.Int) {
	t.Helper()
	want := new(big.Int).Exp(x, e, p)
	if got := newPrime(p, e).exp(x); got.Cmp(want) != 0 {
		t.Fatalf("kernel %x^%x mod %x = %x, want %x", x, e, p, got, want)
	}
	if !useIFMA {
		return
	}
	w := aligned64[laneScratch]()
	xm := new(big.Int).Mod(x, p)
	for l := 0; l < lanes; l++ {
		setLane(&w.x, l, xm)
	}
	newLaneKey(p, p, e, e).exp(w)
	for l := 0; l < lanes; l++ {
		if got := laneInt(&w.x, l); got.Cmp(want) != 0 {
			t.Fatalf("ammX8 lane %d: %x^%x mod %x = %x, want %x", l, x, e, p, got, want)
		}
	}
}

// TestPrimeExpEdges runs the kernel's exponentiation over the edge
// inputs x ∈ {0, 1, p-1, p, p+1, a multiple-of-p-plus-7} (inputs ≥ p are
// reduced first) and exponents 0, 1, 2, all-ones and ones with leading
// zero digits.
func TestPrimeExpEdges(t *testing.T) {
	if !useKernel {
		t.Skip("CPU lacks BMI2/ADX")
	}
	allOnes := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 512), big.NewInt(1))
	exps := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(0xf0f1), allOnes,
		new(big.Int).Rsh(allOnes, 13), // leading zero digits, then all ones
		new(big.Int).Lsh(big.NewInt(1), 300),
	}
	for _, p := range testPrimes() {
		pm1 := new(big.Int).Sub(p, big.NewInt(1))
		xs := []*big.Int{
			big.NewInt(0), big.NewInt(1), big.NewInt(2), pm1, new(big.Int).Set(p),
			new(big.Int).Add(p, big.NewInt(1)),
			new(big.Int).Add(new(big.Int).Mul(p, big.NewInt(1<<40)), big.NewInt(7)),
		}
		exps := append(exps, new(big.Int).Sub(p, big.NewInt(2)), pm1)
		for _, x := range xs {
			for _, e := range exps {
				checkPrimeExp(t, p, x, e)
			}
		}
	}
}

// FuzzExpMatchesBig checks fuzz-chosen bases and exponents over the
// committed primes against big.Int.Exp.
func FuzzExpMatchesBig(f *testing.F) {
	f.Add([]byte{2}, []byte{3}, uint8(0))
	f.Add(bytes.Repeat([]byte{0xff}, 64), bytes.Repeat([]byte{0xff}, 64), uint8(1))
	f.Add(bytes.Repeat([]byte{0xff}, 80), []byte{0, 0, 0, 1}, uint8(2))
	f.Add([]byte{}, []byte{}, uint8(0))
	primes := testPrimes()
	f.Fuzz(func(t *testing.T, xb, eb []byte, which uint8) {
		if !useKernel {
			t.Skip("CPU lacks BMI2/ADX")
		}
		if len(xb) > 128 {
			xb = xb[:128]
		}
		if len(eb) > 64 {
			eb = eb[:64]
		}
		p := primes[int(which)%len(primes)]
		checkPrimeExp(t, p, new(big.Int).SetBytes(xb), new(big.Int).SetBytes(eb))
	})
}

// testModuli are committed 1024-bit odd moduli: a random one, 2¹⁰²⁴-105
// and 2¹⁰²³+1, whose limbs stress montMul1024's carries and final
// subtraction from both ends.
func testModuli() []*big.Int {
	random, _ := new(big.Int).SetString("8d716d71f6bff29d25684c27b2020b48a39f7214d3f78842a96b3b7b08084d0d"+
		"ed3dfe9feef93e2850422ce4bf12f5e422a256e65ae812289aa23b42e8d7fc5d"+
		"835f4a4f24f80617355a64a4fe179b1e5b8a213beb8ff543333f6063abac7f4d"+
		"370ba7c8a387740db9218103fc0f623ca421415df88029c74b682be9e3319223", 16)
	top := new(big.Int).Lsh(big.NewInt(1), 1024)
	bottom := new(big.Int).Lsh(big.NewInt(1), 1023)
	return []*big.Int{
		random,
		top.Sub(top, big.NewInt(105)),
		bottom.Add(bottom, big.NewInt(1)),
	}
}

// publicExps are the public exponents the differential tests use.
var publicExps = []int64{3, 65537}

// checkPublic compares Exp and Mul on the kernel with big.Int.
func checkPublic(t *testing.T, n, e, x, y *big.Int) {
	t.Helper()
	pub := NewPublic(n, e)
	if want := new(big.Int).Exp(x, e, n); pub.Exp(x).Cmp(want) != 0 {
		t.Fatalf("kernel %x^%v mod %x = %x, want %x", x, e, n, pub.Exp(x), want)
	}
	want := new(big.Int).Mul(x, y)
	if want.Mod(want, n); pub.Mul(x, y).Cmp(want) != 0 {
		t.Fatalf("kernel %x·%x mod %x = %x, want %x", x, y, n, pub.Mul(x, y), want)
	}
}

// TestPublicEdges runs Exp and Mul over x, y ∈ {0, 1, 2, N-1} on every
// committed modulus and exponent, plus e = 1 and e = 2⁶⁴-1, and inputs
// N and 8N+3, which the kernel must reduce first.
func TestPublicEdges(t *testing.T) {
	if !useKernel {
		t.Skip("CPU lacks BMI2/ADX")
	}
	exps := []*big.Int{big.NewInt(1), new(big.Int).SetUint64(1<<64 - 1)}
	for _, e := range publicExps {
		exps = append(exps, big.NewInt(e))
	}
	for _, n := range testModuli() {
		nm1 := new(big.Int).Sub(n, big.NewInt(1))
		xs := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), nm1, n,
			new(big.Int).Add(new(big.Int).Lsh(n, 3), big.NewInt(3))}
		for _, e := range exps {
			if !PublicKernelEnabled(NewPublic(n, e)) {
				t.Fatalf("%d-bit odd modulus not prepared for the kernel", n.BitLen())
			}
			for _, x := range xs {
				for _, y := range xs {
					checkPublic(t, n, e, x, y)
				}
			}
		}
	}
}

// TestPublicKernelOnlyForOdd1024BitModuli pins the dispatch rule, and
// that every key it refuses still computes on math/big.
func TestPublicKernelOnlyForOdd1024BitModuli(t *testing.T) {
	odd := testModuli()[0]
	e := big.NewInt(65537)
	cases := []struct {
		name   string
		n, e   *big.Int
		kernel bool
	}{
		{"odd 1024-bit", odd, e, useKernel},
		{"even", new(big.Int).Sub(odd, big.NewInt(1)), e, false},
		{"1023-bit", new(big.Int).Rsh(odd, 1), e, false},
		{"1025-bit", new(big.Int).Add(new(big.Int).Lsh(odd, 1), big.NewInt(1)), e, false},
		{"2048-bit", new(big.Int).Add(new(big.Int).Lsh(odd, 1024), big.NewInt(1)), e, false},
		{"exponent over a word", odd, new(big.Int).Lsh(big.NewInt(1), 64), false},
		{"zero exponent", odd, big.NewInt(0), false},
	}
	for _, c := range cases {
		pub := NewPublic(c.n, c.e)
		if PublicKernelEnabled(pub) != c.kernel {
			t.Errorf("%s: kernel prepared = %v, want %v", c.name, PublicKernelEnabled(pub), c.kernel)
		}
		x := big.NewInt(123456789)
		if want := new(big.Int).Exp(x, c.e, c.n); pub.Exp(x).Cmp(want) != 0 {
			t.Errorf("%s: Exp differs from big.Int.Exp", c.name)
		}
	}
	forceFallback(t)
	if PublicKernelEnabled(NewPublic(odd, e)) {
		t.Fatal("forceFallback did not reach NewPublic")
	}
}

// TestLimbsRoundTrip checks the big.Int ↔ limb conversions on this
// platform's word size, including values with leading zero limbs: 64-bit
// limbs, and on an IFMA CPU ammX8w's lanes, in every lane.
func TestLimbsRoundTrip(t *testing.T) {
	values := append(testModuli(), big.NewInt(0), big.NewInt(1), new(big.Int).Lsh(big.NewInt(0xabcdef), 500))
	for _, v := range values {
		var w wide
		setLimbs(w[:], v)
		if got := limbsInt(w[:]); got.Cmp(v) != 0 {
			t.Fatalf("limbs round trip of %x gave %x", v, got)
		}
	}
	if !useIFMA {
		return
	}
	var top [limbs1040]uint64 // 2¹⁰⁴⁰-1: packX8w subtracts nothing below it
	for i := range top {
		top[i] = mask52
	}
	for r := range values {
		var xs []*big.Int
		for l := 0; l < lanes; l++ {
			xs = append(xs, values[(r+l)%len(values)])
		}
		var words wideWords
		var limbs wideVec
		words.set(xs)
		spreadX8w(&limbs, &words)
		packX8w(&words, &limbs, &top)
		for l, got := range words.ints(lanes) {
			if got.Cmp(xs[l]) != 0 {
				t.Fatalf("lane %d round trip of %x gave %x", l, xs[l], got)
			}
		}
	}
}

// FuzzPublicExpMatchesBig checks fuzz-chosen x and y over the committed
// moduli and exponents against big.Int.
func FuzzPublicExpMatchesBig(f *testing.F) {
	f.Add([]byte{2}, []byte{3}, uint8(0))
	f.Add(bytes.Repeat([]byte{0xff}, 128), bytes.Repeat([]byte{0xff}, 128), uint8(1))
	f.Add(bytes.Repeat([]byte{0x80}, 128), []byte{1}, uint8(2))
	f.Add([]byte{}, []byte{}, uint8(5))
	moduli := testModuli()
	f.Fuzz(func(t *testing.T, xb, yb []byte, which uint8) {
		if !useKernel {
			t.Skip("CPU lacks BMI2/ADX")
		}
		n := moduli[int(which)%len(moduli)]
		e := big.NewInt(publicExps[int(which)/len(moduli)%len(publicExps)])
		x := new(big.Int).SetBytes(xb)
		y := new(big.Int).SetBytes(yb)
		checkPublic(t, n, e, x.Mod(x, n), y.Mod(y, n))
	})
}

// TestGeneratedAssemblyIsCurrent re-runs gen.go and diffs its output
// against the committed montmul_amd64.s.
func TestGeneratedAssemblyIsCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the generator with the go command")
	}
	gotool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not found")
	}
	out := filepath.Join(t.TempDir(), "montmul_amd64.s")
	cmd := exec.Command(gotool, "run", "gen.go", "-out", out)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go run gen.go: %v\n%s", err, msg)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("montmul_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("montmul_amd64.s differs from gen.go's output; run go generate ./internal/rsacrt")
	}
}

func benchKey(b *testing.B) (*rsa.PrivateKey, *big.Int) {
	priv, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		b.Fatal(err)
	}
	h := sha256.Sum256([]byte("bench"))
	x := new(big.Int).SetBytes(h[:])
	return priv, x.Exp(x, big.NewInt(5), priv.N)
}

// BenchmarkExp is one RSA-1024 private operation, the key manager's
// per-chunk work; BenchmarkExpMULX is the same on montMul512 and
// BenchmarkExpFallback on math/big.
func BenchmarkExp(b *testing.B) {
	priv, x := benchKey(b)
	k := New(priv)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Exp(x)
	}
}

func BenchmarkExpMULX(b *testing.B) {
	forceMULX(b)
	priv, x := benchKey(b)
	k := New(priv)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Exp(x)
	}
}

func BenchmarkExpFallback(b *testing.B) {
	forceFallback(b)
	priv, x := benchKey(b)
	k := New(priv)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Exp(x)
	}
}

// BenchmarkPublicExp is one 1024-bit public-exponent operation (e =
// 65537), the client's rᵉ or sᵉ per chunk; BenchmarkPublicExpMULX is
// the same on montMul1024 alone and BenchmarkPublicExpFallback on
// math/big.
func BenchmarkPublicExp(b *testing.B) {
	priv, x := benchKey(b)
	pub := NewPublic(priv.N, big.NewInt(int64(priv.E)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pub.Exp(x)
	}
}

func BenchmarkPublicExpMULX(b *testing.B) {
	forceMULX(b)
	priv, x := benchKey(b)
	pub := NewPublic(priv.N, big.NewInt(int64(priv.E)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pub.Exp(x)
	}
}

func BenchmarkPublicExpFallback(b *testing.B) {
	forceFallback(b)
	priv, x := benchKey(b)
	pub := NewPublic(priv.N, big.NewInt(int64(priv.E)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pub.Exp(x)
	}
}

// BenchmarkExpBatch is BenchmarkExp in a batch of 1024, the key
// manager's request size; ns/op is per element.
func BenchmarkExpBatch(b *testing.B) {
	priv, x := benchKey(b)
	k := New(priv)
	xs := make([]*big.Int, 1024)
	for i := range xs {
		xs[i] = new(big.Int).Add(x, big.NewInt(int64(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i += len(xs) {
		k.ExpBatch(xs[:min(len(xs), b.N-i)])
	}
}

// BenchmarkPublicExpBatch is BenchmarkPublicExp in a batch of 1024, the
// client's batch size; ns/op is per element.
func BenchmarkPublicExpBatch(b *testing.B) {
	priv, x := benchKey(b)
	pub := NewPublic(priv.N, big.NewInt(int64(priv.E)))
	xs := make([]*big.Int, 1024)
	for i := range xs {
		xs[i] = new(big.Int).Add(x, big.NewInt(int64(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i += len(xs) {
		pub.ExpBatch(xs[:min(len(xs), b.N-i)])
	}
}
