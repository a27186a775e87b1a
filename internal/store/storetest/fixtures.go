package storetest

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

// Fixture names a committed file under a test package's testdata/ and
// the blob it is a byte copy of.
type Fixture struct{ File, NS, Name string }

// Load returns a Memory holding each fixture's file as its blob: the
// store a package's at-rest format fixtures describe.
func Load(t testing.TB, fixtures ...Fixture) *store.Memory {
	t.Helper()
	m := store.NewMemory()
	for _, fx := range fixtures {
		blob, err := os.ReadFile(filepath.Join("testdata", fx.File))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Put(context.Background(), fx.NS, fx.Name, blob); err != nil {
			t.Fatal(err)
		}
	}
	return m
}
