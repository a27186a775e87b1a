package abe

import (
	"bytes"
	"crypto/ecdh"
	"encoding/hex"
	mrand "math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// ecdhAgree is the reference: X25519(scalar, u) on crypto/ecdh.
func ecdhAgree(t testing.TB, scalar, u []byte) ([]byte, error) {
	t.Helper()
	priv, err := ecdh.X25519().NewPrivateKey(scalar)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := ecdh.X25519().NewPublicKey(u)
	if err != nil {
		t.Fatal(err)
	}
	return priv.ECDH(pub)
}

func publicKeys(t testing.TB, us [][]byte) []*ecdh.PublicKey {
	t.Helper()
	out := make([]*ecdh.PublicKey, len(us))
	for i, u := range us {
		pub, err := ecdh.X25519().NewPublicKey(u)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = pub
	}
	return out
}

// checkAgainstECDH runs agree on every path, and ladderX8 directly in
// batches of at most eight, and compares each agreement and error with
// crypto/ecdh's.
func checkAgainstECDH(t *testing.T, scalar []byte, us [][]byte) {
	t.Helper()
	want := make([][]byte, len(us))
	firstErr, wantErr := -1, error(nil)
	for i, u := range us {
		z, err := ecdhAgree(t, scalar, u)
		if err != nil && firstErr < 0 {
			firstErr, wantErr = i, err
		}
		want[i] = z
	}
	peers := publicKeys(t, us)
	for _, path := range Paths() {
		t.Run(path, func(t *testing.T) {
			ForcePath(t, path)
			shared := make([]byte, 32*len(us))
			i, err := agree(shared, scalar, peers)
			if firstErr >= 0 {
				if i != firstErr || err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("agree = %d, %v; want %d, %v", i, err, firstErr, wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("agree: %d, %v", i, err)
			}
			for i := range us {
				if !bytes.Equal(shared[32*i:32*i+32], want[i]) {
					t.Fatalf("agreement %d of %d: %x, want %x (u = %x)", i, len(us), shared[32*i:32*i+32], want[i], us[i])
				}
			}
		})
	}
	if !useKernel {
		return
	}
	for lo := 0; lo < len(us); lo += lanes {
		hi := min(lo+lanes, len(us))
		out := make([]byte, 32*(hi-lo))
		x25519X8(out, scalar, peers[lo:hi])
		for i := lo; i < hi; i++ {
			got := out[32*(i-lo) : 32*(i-lo+1)]
			if want[i] == nil {
				if !allZero(got) {
					t.Fatalf("ladderX8 lane %d: %x for a low-order u %x, want zeros", i-lo, got, us[i])
				}
				continue
			}
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("ladderX8 lane %d of %d: %x, want %x (u = %x)", i-lo, hi-lo, got, want[i], us[i])
			}
		}
	}
}

func randomBytes(rnd *mrand.Rand, n int) []byte {
	b := make([]byte, n)
	rnd.Read(b)
	return b
}

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// pPlus encodes p + d, p = 2²⁵⁵ - 19, little-endian, with bit 255 set
// when high is.
func pPlus(d int, high bool) []byte {
	u := bytes.Repeat([]byte{0xff}, 32)
	u[31] = 0x7f
	u[0] = byte(0xed + d) // p = 0x7fff...ffed; d in [-0xed, 0x12]
	if high {
		u[31] |= 0x80
	}
	return u
}

// lowOrder lists the u-coordinates whose agreement with any clamped
// scalar is zero: the points of order 1, 2, 4 and 8 and their
// non-canonical encodings below 2²⁵⁵ (p, p+1), each also with bit 255
// set.
func lowOrder() [][]byte {
	var out [][]byte
	for _, u := range [][]byte{
		make([]byte, 32),
		append([]byte{1}, make([]byte, 31)...),
		mustHex("e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800"),
		mustHex("5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157"),
		pPlus(-1, false),
		pPlus(0, false),
		pPlus(1, false),
	} {
		high := bytes.Clone(u)
		high[31] |= 0x80
		out = append(out, u, high)
	}
	return out
}

func TestX25519MatchesECDHRandom(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(7748))
	for n := 1; n <= 17; n++ {
		for rep := 0; rep < 4; rep++ {
			us := make([][]byte, n)
			for i := range us {
				us[i] = randomBytes(rnd, 32)
			}
			checkAgainstECDH(t, randomBytes(rnd, 32), us)
		}
	}
}

// TestX25519NonCanonical feeds u with bit 255 set and u ≥ p, which RFC
// 7748 masks and reduces, and the values next to those edges.
func TestX25519NonCanonical(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(25519))
	var us [][]byte
	for d := -8; d <= 18; d++ {
		us = append(us, pPlus(d, false), pPlus(d, true))
	}
	for range 8 {
		u := randomBytes(rnd, 32)
		u[31] |= 0x80
		us = append(us, u)
	}
	ones := bytes.Repeat([]byte{0xff}, 32)
	us = append(us, ones, append([]byte{9}, make([]byte, 31)...))
	for rep := 0; rep < 3; rep++ {
		checkAgainstECDH(t, randomBytes(rnd, 32), us)
	}
	checkAgainstECDH(t, ones, us)
	checkAgainstECDH(t, make([]byte, 32), us)
}

// TestX25519LowOrder checks each low-order u alone and inside a batch of
// valid points: the agreement fails with crypto/ecdh's error, reported
// at that u's index.
func TestX25519LowOrder(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(8))
	scalar := randomBytes(rnd, 32)
	for _, bad := range lowOrder() {
		checkAgainstECDH(t, scalar, [][]byte{bad})
		for _, at := range []int{0, 3, 9} {
			us := make([][]byte, 12)
			for i := range us {
				us[i] = randomBytes(rnd, 32)
			}
			us[at] = bad
			checkAgainstECDH(t, scalar, us)
		}
	}
}

// TestX25519RFC7748 runs the two single vectors of RFC 7748 §5.2 and
// its iterated one for 1 000 rounds, through ladderX8 when the CPU has
// it, else through agree.
func TestX25519RFC7748(t *testing.T) {
	one := func(scalar, u []byte) []byte {
		out := make([]byte, 32)
		if useKernel {
			x25519X8(out, scalar, publicKeys(t, [][]byte{u}))
		} else if _, err := agree(out, scalar, publicKeys(t, [][]byte{u})); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, v := range []struct{ scalar, u, want string }{
		{"a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
			"e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
			"c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"},
		{"4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
			"e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
			"95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"},
	} {
		if got := one(mustHex(v.scalar), mustHex(v.u)); !bytes.Equal(got, mustHex(v.want)) {
			t.Errorf("X25519(%s, %s) = %x, want %s", v.scalar, v.u, got, v.want)
		}
	}
	k := append([]byte{9}, make([]byte, 31)...)
	u := bytes.Clone(k)
	for i := 1; i <= 1000; i++ {
		k, u = one(k, u), k
		switch i {
		case 1:
			if want := "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"; hex.EncodeToString(k) != want {
				t.Fatalf("after 1 iteration: %x, want %s", k, want)
			}
		case 1000:
			if want := "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"; hex.EncodeToString(k) != want {
				t.Fatalf("after 1 000 iterations: %x, want %s", k, want)
			}
		}
	}
}

// FuzzX25519MatchesECDH checks a fuzz-chosen scalar against a batch of
// up to 17 fuzz-chosen u-coordinates, 32 bytes each (a short tail is
// padded with zeros), on every path and on ladderX8 directly.
func FuzzX25519MatchesECDH(f *testing.F) {
	f.Add(make([]byte, 32), make([]byte, 32))
	f.Add(bytes.Repeat([]byte{0xff}, 32), bytes.Repeat([]byte{0xff}, 32*17))
	for _, u := range lowOrder() {
		f.Add(bytes.Repeat([]byte{0x5a}, 32), u)
	}
	f.Add(mustHex("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4"),
		mustHex("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c"))
	f.Fuzz(func(t *testing.T, scalar, points []byte) {
		if len(scalar) != 32 || len(points) == 0 {
			return
		}
		n := min((len(points)+31)/32, 17)
		points = append(points, make([]byte, 32*n)...)
		us := make([][]byte, n)
		for i := range us {
			us[i] = points[32*i : 32*i+32]
		}
		checkAgainstECDH(t, scalar, us)
	})
}

// TestKernelSelection logs which X25519 path this machine runs, so a CI
// log shows when a runner lacks IFMA and the kernel's tests only ran
// crypto/ecdh, and checks that agree picks the kernel exactly when the
// CPU has it.
func TestKernelSelection(t *testing.T) {
	t.Logf("X25519 paths on this machine: %v (ladderX8 %v)", Paths(), useKernel)
	if got := Paths()[0] == "ifma"; got != useKernel {
		t.Fatalf("fastest path %q with useKernel %v", Paths()[0], useKernel)
	}
}

// TestGeneratedAssemblyIsCurrent re-runs gen.go and diffs its output
// against the committed x25519_amd64.s.
func TestGeneratedAssemblyIsCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the generator with the go command")
	}
	gotool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not found")
	}
	out := filepath.Join(t.TempDir(), "x25519_amd64.s")
	cmd := exec.Command(gotool, "run", "gen.go", "-out", out)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go run gen.go: %v\n%s", err, msg)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("x25519_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("x25519_amd64.s differs from gen.go's output; run go generate ./internal/abe")
	}
}

// BenchmarkX25519 times one ladderX8 call, whatever its live lanes, and
// one crypto/ecdh agreement: a batch of n agreements is worth the call
// once n agreements take longer than it, which sets kernelMinLanes.
func BenchmarkX25519(b *testing.B) {
	rnd := mrand.New(mrand.NewSource(1))
	scalar := randomBytes(rnd, 32)
	us := make([][]byte, lanes)
	for i := range us {
		us[i] = randomBytes(rnd, 32)
	}
	peers := publicKeys(b, us)
	out := make([]byte, 32*lanes)
	if useKernel {
		b.Run("ladderX8", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x25519X8(out, scalar, peers)
			}
		})
	}
	b.Run("ecdh", func(b *testing.B) {
		priv, err := ecdh.X25519().NewPrivateKey(scalar)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := priv.ECDH(peers[i%lanes]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
