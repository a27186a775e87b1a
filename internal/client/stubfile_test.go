package client

import (
	"bytes"
	"crypto/rand"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/keyreg"
)

var update = flag.Bool("update", false, "reseal the stub-file fixture in testdata/ (a break: stored stub files stop opening)")

// stubFilePath is the file path the fixture's stub file is bound to as
// associated data.
const stubFilePath = "/fixture/stubs"

// TestStubFileKnownAnswer opens a committed stub file, sealed under the
// key-regression fixture owner's current state
// (internal/keyreg/testdata/owner.bin), and requires the committed stubs
// it was sealed from, byte for byte. A change to the stub-file format or
// to the file-key derivation fails here, as it would strand every stored
// stub file. -update reseals fresh random stubs.
func TestStubFileKnownAnswer(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "keyreg", "testdata", "owner.bin"))
	if err != nil {
		t.Fatal(err)
	}
	owner, err := keyreg.UnmarshalOwner(b)
	if err != nil {
		t.Fatal(err)
	}
	state := owner.Current()
	const stubSize, count = core.DefaultStubSize, 3
	stubsPath := filepath.Join("testdata", "stubs.bin")
	sealedPath := filepath.Join("testdata", "stubfile.bin")
	if *update {
		plain := make([]byte, stubSize*count)
		if _, err := rand.Read(plain); err != nil {
			t.Fatal(err)
		}
		c := &Client{cfg: Config{StubSize: stubSize}}
		sealed, err := c.sealStubs(splitStubs(plain, stubSize), state, stubFilePath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stubsPath, plain, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sealedPath, sealed, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	plain, err := os.ReadFile(stubsPath)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := os.ReadFile(sealedPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := openStubFile(sealed, state, stubFilePath, stubSize, count)
	if err != nil {
		t.Fatalf("committed stub file does not open: %v", err)
	}
	want := splitStubs(plain, stubSize)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("stub %d differs from the committed fixture", i)
		}
	}
	if _, err := openStubFile(sealed, state, stubFilePath+"x", stubSize, count); err == nil {
		t.Error("stub file opened under another path")
	}
}

func splitStubs(plain []byte, size int) [][]byte {
	var out [][]byte
	for len(plain) > 0 {
		out = append(out, plain[:size])
		plain = plain[size:]
	}
	return out
}
