package fingerprint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	mrand "math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
)

// TestKernelSelection logs which SHA-256 paths this machine runs, so a
// CI log shows when a runner lacks AVX-512 and the kernel's tests only
// ran crypto/sha256, and checks that SumBatch picks the kernel exactly
// when the CPU has it.
func TestKernelSelection(t *testing.T) {
	t.Logf("SHA-256 paths on this machine: %v (blocksX16 %v)", Paths(), useKernel)
	if got := Paths()[0] == "lanes"; got != useKernel {
		t.Fatalf("fastest path %q with useKernel %v", Paths()[0], useKernel)
	}
}

// TestGeneratedAssemblyIsCurrent re-runs gen.go and diffs its output
// against the committed sha256x16_amd64.s.
func TestGeneratedAssemblyIsCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the generator with the go command")
	}
	gotool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not found")
	}
	out := filepath.Join(t.TempDir(), "sha256x16_amd64.s")
	cmd := exec.Command(gotool, "run", "gen.go", "-out", out)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go run gen.go: %v\n%s", err, msg)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("sha256x16_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("sha256x16_amd64.s differs from gen.go's output; run go generate ./internal/fingerprint")
	}
}

// TestSumBatchKnownAnswers runs FIPS 180-2's "abc", the empty message
// and the padding boundaries (55 bytes fit one block, 56 and 64 need
// two) as sixteen copies of each, so every lane of the kernel computes
// it, split between message and suffix at every cut.
func TestSumBatchKnownAnswers(t *testing.T) {
	for _, tc := range []struct {
		msg  string
		want string
	}{
		{"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
		{"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		{string(bytes.Repeat([]byte{'a'}, 55)), "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
		{string(bytes.Repeat([]byte{'a'}, 56)), "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
		{string(bytes.Repeat([]byte{'a'}, 64)), "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
	} {
		for _, path := range Paths() {
			ForcePath(t, path)
			for cut := 0; cut <= len(tc.msg); cut++ {
				msgs, sufs := make([][]byte, 16), make([][]byte, 16)
				for i := range msgs {
					msgs[i], sufs[i] = []byte(tc.msg[:cut]), []byte(tc.msg[cut:])
				}
				sums := make([]Fingerprint, 16)
				SumBatch(sums, msgs, sufs)
				for i, s := range sums {
					if got := hex.EncodeToString(s[:]); got != tc.want {
						t.Fatalf("%s: %d-byte message cut at %d, lane %d: %s, want %s", path, len(tc.msg), cut, i, got, tc.want)
					}
				}
			}
		}
	}
}

// randomBatch returns n messages of random lengths in [0, maxLen] and,
// when withSuffix, suffixes of 0 to 80 bytes.
func randomBatch(rnd *mrand.Rand, n, maxLen int, withSuffix bool) (msgs, sufs [][]byte) {
	msgs = make([][]byte, n)
	for i := range msgs {
		msgs[i] = make([]byte, rnd.Intn(maxLen+1))
		rnd.Read(msgs[i])
	}
	if withSuffix {
		sufs = make([][]byte, n)
		for i := range sufs {
			sufs[i] = make([]byte, rnd.Intn(81))
			rnd.Read(sufs[i])
		}
	}
	return msgs, sufs
}

func checkBatch(t *testing.T, label string, msgs, sufs [][]byte) {
	t.Helper()
	sums := make([]Fingerprint, len(msgs))
	SumBatch(sums, msgs, sufs)
	for i, m := range msgs {
		want := sha256.Sum256(append(append([]byte(nil), m...), suffixAt(sufs, i)...))
		if sums[i] != want {
			t.Fatalf("%s: message %d of %d (%d bytes, suffix %d): %x, want %x",
				label, i, len(msgs), len(m), len(suffixAt(sufs, i)), sums[i], want)
		}
	}
}

// TestSumBatchMatchesSHA256 holds SumBatch against crypto/sha256 on
// every path, for batches around the lane count and the threshold and
// two long ones, with message lengths from 0 to 20 000 bytes.
func TestSumBatchMatchesSHA256(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(1))
	sizes := []int{64, 513}
	for n := 1; n <= 17; n++ {
		sizes = append(sizes, n)
	}
	for _, path := range Paths() {
		ForcePath(t, path)
		for _, n := range sizes {
			for _, withSuffix := range []bool{false, true} {
				msgs, sufs := randomBatch(rnd, n, 20000, withSuffix)
				checkBatch(t, fmt.Sprintf("%s n=%d suffix=%v", path, n, withSuffix), msgs, sufs)
			}
		}
	}
}

// TestSumBatchSharedAndEqualMessages feeds one backing array to every
// lane and messages of equal length, which end on the same kernel step.
func TestSumBatchSharedAndEqualMessages(t *testing.T) {
	buf := make([]byte, 4096)
	mrand.New(mrand.NewSource(2)).Read(buf)
	for _, path := range Paths() {
		ForcePath(t, path)
		msgs := make([][]byte, 40)
		for i := range msgs {
			msgs[i] = buf[i : i+2048]
		}
		checkBatch(t, path+" equal", msgs, nil)
		for i := range msgs {
			msgs[i] = buf
		}
		checkBatch(t, path+" shared", msgs, nil)
	}
}

// FuzzSumBatch holds SumBatch against crypto/sha256 for batches the
// fuzzer shapes: data is cut into count messages by the bytes of lens,
// and every other message takes a suffix of up to 64 bytes.
func FuzzSumBatch(f *testing.F) {
	f.Add([]byte("abc"), []byte{3}, uint8(1))
	f.Add(bytes.Repeat([]byte{0x5a}, 4000), []byte{55, 56, 64, 0, 200, 127, 128, 63, 9}, uint8(17))
	f.Fuzz(func(t *testing.T, data, lens []byte, count uint8) {
		n := int(count%40) + 1
		msgs, sufs := make([][]byte, n), make([][]byte, n)
		for i := range msgs {
			k := 0
			if len(lens) > 0 {
				k = int(lens[i%len(lens)]) * (1 + i%3)
			}
			k = min(k, len(data))
			msgs[i], data = data[:k], data[k:]
			if i%2 == 1 {
				s := min(k%65, len(data))
				sufs[i], data = data[:s], data[s:]
			}
		}
		for _, path := range Paths() {
			ForcePath(t, path)
			checkBatch(t, path, msgs, sufs)
		}
	})
}

// BenchmarkSum times one batch of n Rabin-sized messages (2-16 KB) on
// SumBatch, on the kernel alone with no threshold ("lanes"), and on
// crypto/sha256, on one goroutine and on two running batches side by
// side. minLanes sits where a kernel step costs as much as the SHA-NI
// blocks its busy lanes replace: "lanes" at n = 512 against
// crypto/sha256 gives that ratio, and below it the lanes run mostly
// empty.
func BenchmarkSum(b *testing.B) {
	rnd := mrand.New(mrand.NewSource(3))
	for _, n := range []int{1, 4, 8, 16, 64, 512} {
		msgs := make([][]byte, n)
		total := 0
		for i := range msgs {
			msgs[i] = make([]byte, 2048+rnd.Intn(14337))
			rnd.Read(msgs[i])
			total += len(msgs[i])
		}
		paths := []struct {
			name string
			run  func(sums []Fingerprint)
		}{
			{"SumBatch", func(sums []Fingerprint) { SumBatch(sums, msgs, nil) }},
			{"lanes", func(sums []Fingerprint) { sumLanes(sums, msgs, nil, make([]byte, stageSize(nil)), 1) }},
			{"crypto/sha256", func(sums []Fingerprint) {
				for i, m := range msgs {
					sums[i] = sumOne(m, nil)
				}
			}},
		}
		for _, p := range paths {
			if p.name == "lanes" && !useKernel {
				continue
			}
			for _, g := range []int{1, 2} {
				b.Run(fmt.Sprintf("n=%d/%s/g=%d", n, p.name, g), func(b *testing.B) {
					b.SetBytes(int64(total * g))
					for i := 0; i < b.N; i++ {
						var wg sync.WaitGroup
						for j := 0; j < g; j++ {
							wg.Add(1)
							go func() {
								defer wg.Done()
								p.run(make([]Fingerprint, n))
							}()
						}
						wg.Wait()
					}
				})
			}
		}
	}
}
