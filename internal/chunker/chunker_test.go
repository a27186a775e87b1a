package chunker

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomData returns deterministic pseudo-random bytes for tests.
func randomData(t testing.TB, n int, seed int64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, n)
	if _, err := rng.Read(data); err != nil {
		t.Fatalf("rand read: %v", err)
	}
	return data
}

func collect(t *testing.T, c Chunker) [][]byte {
	t.Helper()
	var chunks [][]byte
	for {
		chunk, err := c.Next()
		if errors.Is(err, io.EOF) {
			return chunks
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		chunks = append(chunks, append([]byte(nil), chunk...))
	}
}

func TestRabinCoversAllBytes(t *testing.T) {
	data := randomData(t, 1<<20, 1)
	c, err := NewRabin(bytes.NewReader(data), Options{})
	if err != nil {
		t.Fatal(err)
	}
	chunks := collect(t, c)
	got := bytes.Join(chunks, nil)
	if !bytes.Equal(got, data) {
		t.Fatal("concatenated chunks differ from input")
	}
}

func TestRabinRespectsSizeBounds(t *testing.T) {
	data := randomData(t, 1<<20, 2)
	opts := Options{MinSize: 2048, MaxSize: 16384, AvgSize: 8192}
	c, err := NewRabin(bytes.NewReader(data), opts)
	if err != nil {
		t.Fatal(err)
	}
	chunks := collect(t, c)
	for i, chunk := range chunks {
		if i < len(chunks)-1 && len(chunk) < opts.MinSize {
			t.Fatalf("chunk %d size %d below min %d", i, len(chunk), opts.MinSize)
		}
		if len(chunk) > opts.MaxSize {
			t.Fatalf("chunk %d size %d above max %d", i, len(chunk), opts.MaxSize)
		}
	}
}

func TestRabinAverageSizeApproximate(t *testing.T) {
	data := randomData(t, 8<<20, 3)
	c, err := NewRabin(bytes.NewReader(data), Options{})
	if err != nil {
		t.Fatal(err)
	}
	chunks := collect(t, c)
	avg := len(data) / len(chunks)
	// The expected average with min/max clamping sits near the target;
	// accept a generous band since it is a statistical property.
	if avg < DefaultAvgSize/2 || avg > DefaultAvgSize*2 {
		t.Fatalf("average chunk size %d too far from target %d", avg, DefaultAvgSize)
	}
}

func TestRabinDeterministic(t *testing.T) {
	data := randomData(t, 1<<19, 4)
	c1, err := NewRabin(bytes.NewReader(data), Options{})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewRabin(bytes.NewReader(data), Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := collect(t, c1), collect(t, c2)
	if len(a) != len(b) {
		t.Fatalf("chunk counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("chunk %d differs", i)
		}
	}
}

// TestRabinShiftResilience verifies the content-defined property: after an
// insertion near the start, chunk boundaries re-align so that most chunks
// are shared with the original stream.
func TestRabinShiftResilience(t *testing.T) {
	data := randomData(t, 2<<20, 5)
	shifted := append([]byte{0xAB, 0xCD, 0xEF}, data...)

	chunksOf := func(d []byte) map[string]bool {
		c, err := NewRabin(bytes.NewReader(d), Options{})
		if err != nil {
			t.Fatal(err)
		}
		set := make(map[string]bool)
		for _, chunk := range collect(t, c) {
			set[string(chunk)] = true
		}
		return set
	}

	orig := chunksOf(data)
	shift := chunksOf(shifted)

	var shared int
	for chunk := range shift {
		if orig[chunk] {
			shared++
		}
	}
	if ratio := float64(shared) / float64(len(shift)); ratio < 0.9 {
		t.Fatalf("only %.1f%% of chunks shared after a 3-byte insertion; want >= 90%%", ratio*100)
	}
}

func TestRabinEmptyInput(t *testing.T) {
	c, err := NewRabin(bytes.NewReader(nil), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("Next on empty input = %v, want io.EOF", err)
	}
}

func TestRabinShortInput(t *testing.T) {
	data := []byte("shorter than min size")
	c, err := NewRabin(bytes.NewReader(data), Options{})
	if err != nil {
		t.Fatal(err)
	}
	chunks := collect(t, c)
	if len(chunks) != 1 || !bytes.Equal(chunks[0], data) {
		t.Fatalf("short input should yield one chunk equal to the input")
	}
}

func TestRabinOptionValidation(t *testing.T) {
	tests := []struct {
		name string
		opts Options
	}{
		{name: "avg not power of two", opts: Options{MinSize: 2048, MaxSize: 16384, AvgSize: 5000}},
		{name: "min above max", opts: Options{MinSize: 32768, MaxSize: 16384, AvgSize: 8192}},
		{name: "avg below min", opts: Options{MinSize: 4096, MaxSize: 16384, AvgSize: 2048}},
		{name: "negative min", opts: Options{MinSize: -1, MaxSize: 16384, AvgSize: 8192}},
		{name: "min below window", opts: Options{MinSize: 16, MaxSize: 16384, AvgSize: 1024}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewRabin(bytes.NewReader(nil), tt.opts); err == nil {
				t.Fatal("NewRabin expected error, got nil")
			}
		})
	}
}

func TestSplitMatchesStreaming(t *testing.T) {
	data := randomData(t, 1<<19, 6)
	fromSplit, err := Split(data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewRabin(bytes.NewReader(data), Options{})
	if err != nil {
		t.Fatal(err)
	}
	streamed := collect(t, c)
	if len(fromSplit) != len(streamed) {
		t.Fatalf("Split produced %d chunks, streaming produced %d", len(fromSplit), len(streamed))
	}
	for i := range fromSplit {
		if !bytes.Equal(fromSplit[i], streamed[i]) {
			t.Fatalf("chunk %d differs between Split and streaming", i)
		}
	}
}

func TestFixedChunker(t *testing.T) {
	data := randomData(t, 10000, 7)
	c, err := NewFixed(bytes.NewReader(data), 4096)
	if err != nil {
		t.Fatal(err)
	}
	chunks := collect(t, c)
	if len(chunks) != 3 {
		t.Fatalf("got %d chunks, want 3", len(chunks))
	}
	if len(chunks[0]) != 4096 || len(chunks[1]) != 4096 || len(chunks[2]) != 10000-8192 {
		t.Fatalf("unexpected chunk sizes %d/%d/%d", len(chunks[0]), len(chunks[1]), len(chunks[2]))
	}
	if !bytes.Equal(bytes.Join(chunks, nil), data) {
		t.Fatal("fixed chunks do not reassemble input")
	}
}

func TestFixedChunkerExactMultiple(t *testing.T) {
	data := randomData(t, 8192, 8)
	c, err := NewFixed(bytes.NewReader(data), 4096)
	if err != nil {
		t.Fatal(err)
	}
	chunks := collect(t, c)
	if len(chunks) != 2 {
		t.Fatalf("got %d chunks, want 2", len(chunks))
	}
}

func TestFixedChunkerInvalidSize(t *testing.T) {
	if _, err := NewFixed(bytes.NewReader(nil), 0); err == nil {
		t.Fatal("NewFixed(0) expected error")
	}
}

func TestSplitFixed(t *testing.T) {
	data := randomData(t, 9000, 9)
	chunks, err := SplitFixed(data, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 3 {
		t.Fatalf("got %d chunks, want 3", len(chunks))
	}
	if !bytes.Equal(bytes.Join(chunks, nil), data) {
		t.Fatal("SplitFixed chunks do not reassemble input")
	}
	if _, err := SplitFixed(data, -1); err == nil {
		t.Fatal("SplitFixed(-1) expected error")
	}
}

func TestPolyHelpers(t *testing.T) {
	if got := polyDeg(0); got != -1 {
		t.Fatalf("polyDeg(0) = %d, want -1", got)
	}
	if got := polyDeg(1); got != 0 {
		t.Fatalf("polyDeg(1) = %d, want 0", got)
	}
	if got := polyDeg(defaultPolynomial); got != 53 {
		t.Fatalf("polyDeg(default) = %d, want 53", got)
	}
	// x^3 mod (x^2+1) = x * (x^2 mod (x^2+1)) = x*1 = x
	if got := polyMod(0b1000, 0b101); got != 0b10 {
		t.Fatalf("polyMod = %b, want 10", got)
	}
}

func TestBuildTablesRejectsTinyPolynomial(t *testing.T) {
	if _, err := buildTables(0b11); err == nil {
		t.Fatal("buildTables with degree-1 polynomial expected error")
	}
}

// BenchmarkRabinChunking prints MB/s for the chunker on random data
// (cuts every 8 KB or so), on zeros (no window ever matches, so every
// chunk is scanned to MaxSize) and, for comparison, for the
// byte-at-a-time reference on the same random data.
func BenchmarkRabinChunking(b *testing.B) {
	random := randomData(b, 8<<20, 42)
	run := func(name string, data []byte, open func(io.Reader) (Chunker, error)) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				c, err := open(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				for {
					if _, err := c.Next(); errors.Is(err, io.EOF) {
						break
					} else if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
	inPlace := func(r io.Reader) (Chunker, error) { return NewRabin(r, Options{}) }
	run("random", random, inPlace)
	run("zeros", make([]byte, 8<<20), inPlace)
	run("reference", random, func(r io.Reader) (Chunker, error) { return newRefRabin(r, Options{}) })
}

// TestRabinReassemblyProperty: for arbitrary inputs, the chunk stream
// must reassemble to the input exactly and respect the size bounds.
func TestRabinReassemblyProperty(t *testing.T) {
	f := func(data []byte) bool {
		chunks, err := Split(data, Options{})
		if err != nil {
			return false
		}
		var total int
		for i, c := range chunks {
			if len(c) > DefaultMaxSize {
				return false
			}
			if i < len(chunks)-1 && len(c) < DefaultMinSize {
				return false
			}
			total += len(c)
		}
		if total != len(data) {
			return false
		}
		return bytes.Equal(bytes.Join(chunks, nil), data)
	}
	cfg := &quick.Config{
		MaxCount: 30,
		Values: func(values []reflect.Value, rng *rand.Rand) {
			// Bias toward multi-chunk inputs; quick's default slices
			// are too small to exercise boundary logic.
			data := make([]byte, rng.Intn(200_000))
			rng.Read(data)
			values[0] = reflect.ValueOf(data)
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
