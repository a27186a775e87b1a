package chunker

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the cut-offset fixtures in testdata/ (every stored chunk boundary moves)")

// fixtureStream is the fixtures' own generator (xorshift64*), so the
// pinned inputs do not depend on math/rand's algorithm.
type fixtureStream uint64

func (s *fixtureStream) next() uint64 {
	x := uint64(*s)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*s = fixtureStream(x)
	return x * 0x2545F4914F6CDD1D
}

func fixtureRandom(seed uint64, n int) []byte {
	s := fixtureStream(seed)
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(s.next() >> 56)
	}
	return out
}

// fixtureTwoSymbol draws every byte from {'a', 'b'}: one bit of entropy
// per byte, so window digests repeat and cuts cluster.
func fixtureTwoSymbol(seed uint64, n int) []byte {
	s := fixtureStream(seed)
	out := make([]byte, n)
	for i := range out {
		out[i] = 'a' + byte(s.next()>>63)
	}
	return out
}

// cutFixtures pins where Rabin cuts. Every stored chunk is named by the
// hash of its bytes, so a boundary that moves silently ends
// deduplication against everything uploaded before.
var cutFixtures = []struct {
	file string
	data func() []byte
	opts Options
}{
	{"random.cuts", func() []byte { return fixtureRandom(1, 1<<20) }, Options{}},
	{"two_symbol.cuts", func() []byte { return fixtureTwoSymbol(2, 1<<20) }, Options{}},
	// A zero window hashes to zero, which never matches the mask: every
	// cut is forced at MaxSize.
	{"zeros.cuts", func() []byte { return make([]byte, 100_000) }, Options{}},
	{"exactly_min.cuts", func() []byte { return fixtureRandom(3, DefaultMinSize) }, Options{}},
	{"below_min.cuts", func() []byte { return fixtureRandom(4, 1000) }, Options{}},
	{"polynomial.cuts", func() []byte { return fixtureRandom(5, 1<<20) }, Options{Polynomial: 0x3abc9bff07d9e5}},
	{"geometry_4k_16k_64k.cuts", func() []byte { return fixtureRandom(6, 2<<20) },
		Options{MinSize: 4 << 10, AvgSize: 16 << 10, MaxSize: 64 << 10}},
}

// cutOffsets returns the end offset of every chunk.
func cutOffsets(chunks [][]byte) []int {
	offs := make([]int, len(chunks))
	off := 0
	for i, ch := range chunks {
		off += len(ch)
		offs[i] = off
	}
	return offs
}

func formatCuts(offs []int) []byte {
	var b bytes.Buffer
	for _, o := range offs {
		b.WriteString(strconv.Itoa(o))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func readCuts(t *testing.T, file string) []int {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	var offs []int
	for _, line := range strings.Fields(string(raw)) {
		o, err := strconv.Atoi(line)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		offs = append(offs, o)
	}
	return offs
}

// TestCutOffsetsKnownAnswer: the streaming chunker and Split must both
// cut every pinned stream exactly where the committed fixture says.
func TestCutOffsetsKnownAnswer(t *testing.T) {
	for _, fx := range cutFixtures {
		data := fx.data()
		c, err := NewRabin(bytes.NewReader(data), fx.opts)
		if err != nil {
			t.Fatalf("%s: %v", fx.file, err)
		}
		streamed := cutOffsets(collect(t, c))
		split, err := Split(data, fx.opts)
		if err != nil {
			t.Fatalf("%s: %v", fx.file, err)
		}
		if got := cutOffsets(split); !slices.Equal(got, streamed) {
			t.Errorf("%s: Split and the streaming chunker disagree", fx.file)
		}
		if *update {
			if err := os.WriteFile(filepath.Join("testdata", fx.file), formatCuts(streamed), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if want := readCuts(t, fx.file); !slices.Equal(streamed, want) {
			t.Errorf("%s: %d cuts differ from the %d in the committed fixture", fx.file, len(streamed), len(want))
		}
	}
}
