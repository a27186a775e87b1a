package chunker

import (
	"io"
	"slices"
	"testing"
)

// unevenReader hands data out in reads whose sizes cycle through sizes:
// short reads, empty reads (a zero entry) and reads far larger than a
// chunk all occur, and the last read may carry io.EOF with its bytes.
type unevenReader struct {
	data    []byte
	sizes   []byte
	turn    int
	eofWith bool
}

func (r *unevenReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if len(r.sizes) > 0 {
		// 0, 1..254 bytes, or (255) whatever the caller has room for.
		if s := int(r.sizes[r.turn%len(r.sizes)]); s != 255 && s < n {
			n = s
		}
		r.turn++
	}
	n = copy(p[:n], r.data)
	r.data = r.data[n:]
	if len(r.data) == 0 && r.eofWith {
		return n, io.EOF
	}
	return n, nil
}

// fuzzGeometries are the (min, avg, max) triples the fuzzer picks from:
// the default, the fixture's large one, ones small enough that a few
// hundred bytes cross several chunks, one wide enough for the two-lane
// loop at a small minimum, and min = avg = max where every cut is forced.
var fuzzGeometries = []Options{
	{},
	{MinSize: 4 << 10, AvgSize: 16 << 10, MaxSize: 64 << 10},
	{MinSize: 48, AvgSize: 64, MaxSize: 64},
	{MinSize: 64, AvgSize: 256, MaxSize: 1024},
	{MinSize: 64, AvgSize: 512, MaxSize: 8192},
	{MinSize: 1024, AvgSize: 1024, MaxSize: 1024},
	{Polynomial: 0x3abc9bff07d9e5},
}

// checkMatchesReference: the in-place scan, fed through an unevenReader,
// must cut data exactly where the byte-at-a-time reference
// (rabin_ref_test.go) cuts.
func checkMatchesReference(t *testing.T, data []byte, opts Options, sizes []byte, eofWith bool) {
	t.Helper()
	ref, err := newRefRabin(newBytesReader(data), opts)
	if err != nil {
		t.Fatal(err)
	}
	want := cutOffsets(collect(t, ref))
	c, err := NewRabin(&unevenReader{data: data, sizes: sizes, eofWith: eofWith}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := cutOffsets(collect(t, c)); !slices.Equal(got, want) {
		t.Fatalf("geometry %+v, reads %v: %d cuts, reference made %d (first difference at cut %d)",
			opts, sizes, len(got), len(want), firstDifference(got, want))
	}
}

// TestRabinMatchesReference covers what the fuzz seeds are too small
// for: streams of many chunks at every geometry, under every read shape.
func TestRabinMatchesReference(t *testing.T) {
	streams := [][]byte{
		fixtureRandom(7, 400_000),
		fixtureTwoSymbol(8, 400_000),
		make([]byte, 100_000),
	}
	reads := [][]byte{nil, {1}, {7, 0, 250, 1, 255}, {255, 13}}
	for _, opts := range fuzzGeometries {
		for _, data := range streams {
			for i, sizes := range reads {
				checkMatchesReference(t, data, opts, sizes, i%2 == 1)
			}
		}
	}
}

// FuzzRabinMatchesReference: any data, any geometry, any pattern of
// short and uneven reads. The seeds stay small (the fuzzer's minimizer
// re-runs the target once per byte it tries to drop) and lean on the
// small geometries, where a few thousand bytes are many chunks.
func FuzzRabinMatchesReference(f *testing.F) {
	f.Add([]byte{}, uint8(0), []byte{}, false)
	f.Add([]byte("shorter than any minimum"), uint8(2), []byte{1}, true)
	f.Add(fixtureRandom(9, 20_000), uint8(0), []byte{7, 0, 250, 1, 255}, true)
	f.Add(fixtureTwoSymbol(10, 2_000), uint8(2), []byte{5, 0}, false)
	f.Add(fixtureRandom(11, 4_000), uint8(3), []byte{200, 1}, false)
	f.Add(fixtureTwoSymbol(12, 12_000), uint8(4), []byte{255}, true)
	f.Add(fixtureRandom(13, 3_000), uint8(5), []byte{9}, false)
	f.Add(make([]byte, 9_000), uint8(4), []byte{3, 255}, false)
	f.Fuzz(func(t *testing.T, data []byte, geometry uint8, sizes []byte, eofWith bool) {
		onlyZero := len(sizes) > 0
		for _, s := range sizes {
			onlyZero = onlyZero && s == 0
		}
		if onlyZero { // a reader that never makes progress never ends
			sizes = nil
		}
		checkMatchesReference(t, data, fuzzGeometries[int(geometry)%len(fuzzGeometries)], sizes, eofWith)
	})
}

func firstDifference(a, b []int) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}
