package client

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/keyreg"
	"repro/internal/recipe"
)

var update = flag.Bool("update", false, "reseal the v2 stub-file fixture in testdata/ from the committed stubs (v1 files cannot be written any more and are never touched)")

// stubFilePath is the file path the fixtures' stub files are bound to as
// associated data.
const stubFilePath = "/fixture/stubs"

// The fixtures: three 64-byte stubs, sealed under the key-regression
// fixture owner's current state (internal/keyreg/testdata/owner.bin) as
// a v1 stub file by an earlier client and as a v2 stub file.
const (
	fixtureStubSize  = core.DefaultStubSize
	fixtureStubCount = 3
)

var (
	fixtureStubs    = filepath.Join("testdata", "stubs.bin")
	fixtureStubV1   = filepath.Join("testdata", "stubfile.bin")
	fixtureStubFile = filepath.Join("testdata", "stubfile_v2.bin")
)

func fixtureOwner(t testing.TB) *keyreg.Owner {
	t.Helper()
	owner, err := keyreg.UnmarshalOwner(readFixture(t, filepath.Join("..", "keyreg", "testdata", "owner.bin")))
	if err != nil {
		t.Fatal(err)
	}
	return owner
}

func fixtureState(t testing.TB) keyreg.State {
	t.Helper()
	return fixtureOwner(t).Current()
}

func readFixture(t testing.TB, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkStubFixture opens a committed stub file under state, as a file
// whose recipe says recVersion, and requires the committed stubs byte
// for byte and the key version wantVersion.
func checkStubFixture(t *testing.T, sealed []byte, state keyreg.State, recVersion, wantVersion uint64) {
	t.Helper()
	f, err := parseStubFile(sealed, fixtureStubSize, fixtureStubCount, recVersion)
	if err != nil {
		t.Fatalf("committed stub file does not parse: %v", err)
	}
	if f.version != wantVersion {
		t.Fatalf("stub file names key version %d, want %d", f.version, wantVersion)
	}
	got, err := f.open(state, stubFilePath, fixtureStubSize)
	if err != nil {
		t.Fatalf("committed stub file does not open: %v", err)
	}
	want := splitStubs(readFixture(t, fixtureStubs), fixtureStubSize)
	if len(got) != len(want) {
		t.Fatalf("%d stubs, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("stub %d differs from the committed fixture", i)
		}
	}
	if _, err := f.open(state, stubFilePath+"x", fixtureStubSize); err == nil {
		t.Error("stub file opened under another path")
	}
}

// TestStubFileKnownAnswer opens the committed v1 stub file, which names
// no key version and so opens under the recipe's. A change to the file
// key derivation or to v1 parsing fails here, as it would strand every
// v1 stub file still stored.
func TestStubFileKnownAnswer(t *testing.T) {
	state := fixtureState(t)
	checkStubFixture(t, readFixture(t, fixtureStubV1), state, state.Version, state.Version)
}

// TestStubFileV2KnownAnswer opens the committed v2 stub file, whose
// header names the key version; the recipe's version is ignored. A
// change to the v2 format fails here. -update reseals the committed
// stubs.
func TestStubFileV2KnownAnswer(t *testing.T) {
	state := fixtureState(t)
	if *update {
		c := &Client{cfg: Config{StubSize: fixtureStubSize}}
		sealed, err := c.sealStubs(splitStubs(readFixture(t, fixtureStubs), fixtureStubSize), state, stubFilePath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fixtureStubFile, sealed, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	checkStubFixture(t, readFixture(t, fixtureStubFile), state, state.Version+7, state.Version)
}

// TestStubFileFormatErrors tampers with the committed v2 stub file: a
// flipped format byte is refused by name, a flipped version byte fails
// authentication (the header is associated data), and a blob whose
// length fits neither format gets the length error.
func TestStubFileFormatErrors(t *testing.T) {
	state := fixtureState(t)
	sealed := readFixture(t, fixtureStubFile)
	for i := 0; i < stubHeaderSize; i++ {
		bad := bytes.Clone(sealed)
		bad[i] ^= 0x01
		f, err := parseStubFile(bad, fixtureStubSize, fixtureStubCount, state.Version)
		if i == 0 {
			if err == nil || !strings.Contains(err.Error(), "format 3 not supported") {
				t.Errorf("flipped format byte: error %v", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("header byte %d: %v", i, err)
		}
		if _, err := f.open(state, stubFilePath, fixtureStubSize); err == nil || !strings.Contains(err.Error(), "authentication failed") {
			t.Errorf("flipped header byte %d: error %v, want authentication failure", i, err)
		}
	}
	for _, n := range []int{0, 1, len(sealed) - stubHeaderSize - 1, len(sealed) - 1, len(sealed) + 1, len(sealed) + stubHeaderSize} {
		blob := make([]byte, n)
		copy(blob, sealed)
		if _, err := parseStubFile(blob, fixtureStubSize, fixtureStubCount, state.Version); err == nil || !strings.Contains(err.Error(), "want 220 (v1) or 229 (v2)") {
			t.Errorf("%d-byte stub file: error %v, want the length error", n, err)
		}
	}
}

// FuzzOpenStubFile feeds the stub-file decoder — the v1/v2 length test,
// the header parse, the version check and the unwind — bytes as the
// cloud might hand them back, for recipes of 0 to 7 stubs naming any
// key version. Nothing may panic, a length that fits neither format is
// refused, and only the committed fixtures open.
func FuzzOpenStubFile(f *testing.F) {
	owner := fixtureOwner(f)
	state, pub := owner.Current(), owner.Public()
	want := readFixture(f, fixtureStubs)
	f.Add(readFixture(f, fixtureStubV1), uint8(fixtureStubCount), state.Version)
	f.Add(readFixture(f, fixtureStubFile), uint8(fixtureStubCount), state.Version)
	f.Add(readFixture(f, fixtureStubFile), uint8(fixtureStubCount), uint64(0))
	f.Add([]byte{stubFileV2, 0, 0, 0, 0, 0, 0, 0, 9}, uint8(0), uint64(0))
	c := &Client{cfg: Config{StubSize: fixtureStubSize}}
	f.Fuzz(func(t *testing.T, blob []byte, count uint8, recVersion uint64) {
		rec := &recipe.Recipe{Chunks: make([]recipe.ChunkRef, count%8), KeyVersion: recVersion}
		stubs, version, err := c.openStubs(blob, stubFilePath, rec, state, pub)
		v1 := stubNonceSize + stubTagSize + fixtureStubSize*len(rec.Chunks)
		if n := len(blob); n != v1 && n != v1+stubHeaderSize && err == nil {
			t.Fatalf("a %d-byte stub file opened for %d stubs", n, len(rec.Chunks))
		}
		if err != nil {
			return
		}
		if version > state.Version || !bytes.Equal(bytes.Join(stubs, nil), want) {
			t.Fatalf("forged stub file opened: version %d, %d stubs", version, len(stubs))
		}
	})
}

func splitStubs(plain []byte, size int) [][]byte {
	var out [][]byte
	for len(plain) > 0 {
		out = append(out, plain[:size])
		plain = plain[size:]
	}
	return out
}
