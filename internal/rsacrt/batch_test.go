package rsacrt

import (
	"bytes"
	"crypto/rsa"
	"crypto/sha256"
	"math/big"
	"testing"
	"unsafe"
)

// testKey is a 1024-bit RSA key built from two committed primes, the
// random one and the largest below 2⁵¹², so every path runs the same
// key and the lanes see a modulus whose limbs are all ones.
func testKey(t testing.TB) *rsa.PrivateKey {
	t.Helper()
	primes := testPrimes()
	p, q := primes[0], primes[1]
	one := big.NewInt(1)
	pm1, qm1 := new(big.Int).Sub(p, one), new(big.Int).Sub(q, one)
	phi := new(big.Int).Mul(pm1, qm1)
	priv := &rsa.PrivateKey{
		PublicKey: rsa.PublicKey{N: new(big.Int).Mul(p, q), E: 65537},
		D:         new(big.Int).ModInverse(big.NewInt(65537), phi),
		Primes:    []*big.Int{p, q},
	}
	priv.Precompute()
	if priv.Precomputed.Dp == nil {
		t.Fatal("test key has no CRT values")
	}
	return priv
}

// checkBatch compares ExpBatch with big.Int.Exp on every element.
func checkBatch(t *testing.T, k *Key, priv *rsa.PrivateKey, xs []*big.Int) {
	t.Helper()
	got := k.ExpBatch(xs)
	if len(got) != len(xs) {
		t.Fatalf("ExpBatch returned %d results for %d inputs", len(got), len(xs))
	}
	for i, x := range xs {
		if want := new(big.Int).Exp(x, priv.D, priv.N); got[i].Cmp(want) != 0 {
			t.Fatalf("batch of %d, element %d: %x^d = %x, want %x", len(xs), i, x, got[i], want)
		}
	}
}

// TestExpBatchLaneTails runs ExpBatch at sizes around the four
// evaluations one ammX8 call holds, with the edge inputs 0, 1, p, q and
// N-1 rotated through every lane position, and at the key manager's
// batch size with the edges at its head and tail.
func TestExpBatchLaneTails(t *testing.T) {
	priv := testKey(t)
	nm1 := new(big.Int).Sub(priv.N, big.NewInt(1))
	edges := []*big.Int{big.NewInt(0), big.NewInt(1), priv.Primes[0], priv.Primes[1], nm1}
	var spread []*big.Int // 16 values over [0, N)
	for i := 0; i < 16; i++ {
		h := sha256.Sum256([]byte{byte(i)})
		x := new(big.Int).SetBytes(h[:])
		spread = append(spread, x.Exp(x, big.NewInt(5), priv.N))
	}
	paths(t, func(t *testing.T) {
		k := New(priv)
		for _, n := range []int{0, 1, 3, 4, 5, 8, 9} {
			for r := range edges {
				xs := make([]*big.Int, n)
				for i := range xs {
					xs[i] = edges[(i+r)%len(edges)]
				}
				checkBatch(t, k, priv, xs)
			}
		}
		xs := make([]*big.Int, 1024)
		for i := range xs {
			xs[i] = spread[i%len(spread)]
		}
		copy(xs, edges)
		copy(xs[len(xs)-len(edges):], edges)
		got := k.ExpBatch(xs)
		want := make(map[*big.Int]*big.Int)
		for i, x := range xs {
			if want[x] == nil {
				want[x] = new(big.Int).Exp(x, priv.D, priv.N)
			}
			if got[i].Cmp(want[x]) != 0 {
				t.Fatalf("batch of 1024, element %d: %x^d = %x, want %x", i, x, got[i], want[x])
			}
		}
	})
}

// TestPathsAgree runs the same inputs through ammX8, montMul512 and
// math/big, whichever this machine has, and requires the same bytes
// from each, one Exp at a time and as one ExpBatch.
func TestPathsAgree(t *testing.T) {
	priv := testKey(t)
	var xs []*big.Int
	for i := 0; i < 37; i++ {
		h := sha256.Sum256([]byte{'a', byte(i)})
		x := new(big.Int).SetBytes(bytes.Repeat(h[:], 4))
		xs = append(xs, x.Mod(x, priv.N))
	}
	var ref []*big.Int
	paths(t, func(t *testing.T) {
		k := New(priv)
		got := k.ExpBatch(xs)
		for i, x := range xs {
			if one := k.Exp(x); one.Cmp(got[i]) != 0 {
				t.Fatalf("element %d: Exp and ExpBatch differ", i)
			}
		}
		if ref == nil {
			ref = got
			return
		}
		for i := range xs {
			if got[i].Cmp(ref[i]) != 0 {
				t.Fatalf("element %d differs from the %s path", i, Paths()[0])
			}
		}
	})
	if want := new(big.Int).Exp(xs[0], priv.D, priv.N); ref[0].Cmp(want) != 0 {
		t.Fatal("the paths agree on a wrong answer")
	}
}

// TestKernelSelection logs which kernels this machine runs, so a CI log
// shows when a runner lacks IFMA and its test skipped, and checks New
// and NewPublic prepare the test keys for the fastest ones.
func TestKernelSelection(t *testing.T) {
	t.Logf("private-key paths on this machine: %v (ammX8 %v, montMul512 %v)", Paths(), useIFMA, useKernel)
	k := New(testKey(t))
	if IFMAEnabled(k) != useIFMA || KernelEnabled(k) != useKernel {
		t.Fatalf("prepared for ammX8 %v, a kernel %v; want %v, %v", IFMAEnabled(k), KernelEnabled(k), useIFMA, useKernel)
	}
	if useIFMA && k.p != nil {
		t.Fatal("key prepared for both ammX8 and montMul512")
	}
	pub := NewPublic(testModuli()[0], big.NewInt(65537))
	t.Logf("public path on this machine: %s (ammX8w %v, montMul1024 %v)", PublicPath(pub), useIFMA && useKernel, useKernel)
	want := "fallback"
	switch {
	case useIFMA && useKernel:
		want = "ifma"
	case useKernel:
		want = "mulx"
	}
	if got := PublicPath(pub); got != want {
		t.Fatalf("public key prepared for %s, want %s", got, want)
	}
}

// FuzzExpBatchMatchesBig checks a fuzz-chosen batch of up to nine inputs
// of any length, reduced mod N, against big.Int.Exp on the machine's
// fastest path. raw is a sequence of length-prefixed big-endian inputs.
func FuzzExpBatchMatchesBig(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 0, 128})
	f.Add(append([]byte{255}, bytes.Repeat([]byte{0xff}, 255)...))
	f.Add(bytes.Repeat([]byte{3, 1, 0, 1}, 9))
	priv := testKey(f)
	k := New(priv)
	f.Fuzz(func(t *testing.T, raw []byte) {
		var xs []*big.Int
		for len(xs) < 9 && len(raw) > 0 {
			n := min(int(raw[0]), len(raw)-1)
			x := new(big.Int).SetBytes(raw[1 : 1+n])
			xs = append(xs, x.Mod(x, priv.N))
			raw = raw[1+n:]
		}
		checkBatch(t, k, priv, xs)
	})
}

// checkPublicBatch compares ExpBatch and MulBatch with big.Int on every
// element, caching big.Int's answers by input.
func checkPublicBatch(t *testing.T, pub *Public, xs, ys []*big.Int) {
	t.Helper()
	n, e := pub.N, pub.E
	exps, muls := pub.ExpBatch(xs), pub.MulBatch(xs, ys)
	if len(exps) != len(xs) || len(muls) != len(xs) {
		t.Fatalf("%d inputs gave %d powers and %d products", len(xs), len(exps), len(muls))
	}
	type pair struct{ x, y *big.Int }
	wantExp := make(map[*big.Int]*big.Int)
	wantMul := make(map[pair]*big.Int)
	for i, x := range xs {
		if wantExp[x] == nil {
			wantExp[x] = new(big.Int).Exp(x, e, n)
		}
		if exps[i].Cmp(wantExp[x]) != 0 {
			t.Fatalf("%s: batch of %d, element %d: %x^%v mod N = %x, want %x", PublicPath(pub), len(xs), i, x, e, exps[i], wantExp[x])
		}
		k := pair{x, ys[i]}
		if wantMul[k] == nil {
			v := new(big.Int).Mul(x, ys[i])
			wantMul[k] = v.Mod(v, n)
		}
		if muls[i].Cmp(wantMul[k]) != 0 {
			t.Fatalf("%s: batch of %d, element %d: %x·%x mod N = %x, want %x", PublicPath(pub), len(xs), i, x, ys[i], muls[i], wantMul[k])
		}
	}
}

// TestPublicBatchLaneTails runs ExpBatch and MulBatch at sizes around
// the eight elements one ammX8w call holds and at the client's batch
// size, with the values 0, 1, 2, N-1 and N rotated through every lane,
// on every committed modulus and every path.
func TestPublicBatchLaneTails(t *testing.T) {
	paths(t, func(t *testing.T) {
		for _, n := range testModuli() {
			for _, e := range publicExps {
				pub := NewPublic(n, big.NewInt(e))
				if got, want := PublicPath(pub), Paths()[0]; got != want {
					t.Fatalf("modulus prepared for %s, want %s", got, want)
				}
				edges := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), new(big.Int).Sub(n, big.NewInt(1)), n}
				for _, size := range []int{0, 1, 7, 8, 9, 1024} {
					for r := range edges {
						xs, ys := make([]*big.Int, size), make([]*big.Int, size)
						for i := range xs {
							xs[i] = edges[(i+r)%len(edges)]
							ys[i] = edges[(i+r+2)%len(edges)]
						}
						checkPublicBatch(t, pub, xs, ys)
					}
				}
			}
		}
	})
}

// FuzzPublicExpBatchMatchesBig checks fuzz-chosen batches of up to 17
// inputs of any length, reduced mod N, against big.Int on every path,
// for every committed modulus and exponent. raw is a sequence of
// length-prefixed big-endian inputs; MulBatch multiplies each input by
// the next.
func FuzzPublicExpBatchMatchesBig(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 0, 128}, uint8(1))
	f.Add(append([]byte{255}, bytes.Repeat([]byte{0xff}, 255)...), uint8(2))
	f.Add(bytes.Repeat([]byte{3, 1, 0, 1}, 17), uint8(3))
	f.Add(bytes.Repeat(append([]byte{128}, bytes.Repeat([]byte{0x80}, 128)...), 9), uint8(4))
	moduli := testModuli()
	f.Fuzz(func(t *testing.T, raw []byte, which uint8) {
		n := moduli[int(which)%len(moduli)]
		e := big.NewInt(publicExps[int(which)/len(moduli)%len(publicExps)])
		var xs []*big.Int
		for len(xs) < 17 && len(raw) > 0 {
			k := min(int(raw[0]), len(raw)-1)
			x := new(big.Int).SetBytes(raw[1 : 1+k])
			xs = append(xs, x.Mod(x, n))
			raw = raw[1+k:]
		}
		ys := make([]*big.Int, len(xs))
		for i := range xs {
			ys[i] = xs[(i+1)%len(xs)]
		}
		for _, path := range Paths() {
			ForcePath(t, path) // each path only disables more than the last
			checkPublicBatch(t, NewPublic(n, e), xs, ys)
		}
	})
}

// TestScratchPoolsWipe fills a scratch from each pool with ones, hands
// it back, and requires it to read all zero: a pooled scratch carries no
// residue of the exponents and moduli of the call that used it.
func TestScratchPoolsWipe(t *testing.T) {
	checkWipe(t, &laneScratches)
	checkWipe(t, &wideScratches)
}

func checkWipe[T any](t *testing.T, pool *scratchPool[T]) {
	t.Helper()
	s := pool.get()
	b := unsafe.Slice((*byte)(unsafe.Pointer(s)), unsafe.Sizeof(*s))
	for i := range b {
		b[i] = 0xff
	}
	pool.put(s)
	if !bytes.Equal(b, make([]byte, len(b))) {
		t.Errorf("%T scratch holds nonzero bytes after put", *s)
	}
}
