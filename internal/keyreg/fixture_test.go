package keyreg

import (
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the key-regression known answers in testdata/ (a break: stored key states stop unwinding to the file keys they sealed)")

// fixtureOwnerFile is a committed owner (Owner.Marshal) at version 1.
// -update writes a fresh one only when the file is missing; the winds are
// rewritten against whatever owner is committed.
const fixtureOwnerFile = "owner.bin"

func fixtureOwner(t *testing.T) *Owner {
	t.Helper()
	path := filepath.Join("testdata", fixtureOwnerFile)
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) && *update {
		b = newOwner(t).Marshal()
		if err := os.WriteFile(path, b, 0o600); err != nil {
			t.Fatal(err)
		}
	} else if err != nil {
		t.Fatal(err)
	}
	o, err := UnmarshalOwner(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(o.Marshal(), b) {
		t.Fatal("owner does not round-trip through Marshal")
	}
	return o
}

// TestWindKnownAnswer pins the committed owner's states after three
// winds (one State.Marshal per line, versions 1 to 4), the file key each
// one derives (one State.Key per line), and that Unwind with the public
// key alone walks the newest back to every earlier one, both on the
// prepared key (the Montgomery kernel where it applies) and on a struct
// literal (math/big). A byte that moves here strands every
// stored key state.
func TestWindKnownAnswer(t *testing.T) {
	o := fixtureOwner(t)
	states := []State{o.Current()}
	for i := 0; i < 3; i++ {
		states = append(states, o.Wind())
	}
	var b, keys strings.Builder
	for _, st := range states {
		b.WriteString(hex.EncodeToString(st.Marshal()))
		b.WriteByte('\n')
		k := st.Key()
		keys.WriteString(hex.EncodeToString(k[:]))
		keys.WriteByte('\n')
	}
	knownAnswer(t, "winds.hex", b.String())
	knownAnswer(t, "filekeys.hex", keys.String())

	newest := states[len(states)-1]
	prepared := o.Public()
	for _, pub := range []Public{prepared, {N: prepared.N, E: prepared.E}} {
		for _, want := range states {
			got, err := Unwind(pub, newest, want.Version)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Marshal(), want.Marshal()) {
				t.Errorf("Unwind to version %d differs from the wound state (prepared key: %v)", want.Version, pub.pub != nil)
			}
		}
	}
}

// knownAnswer compares got with testdata/name, or rewrites the file
// under -update.
func knownAnswer(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if want, err := os.ReadFile(path); err != nil {
		t.Fatal(err)
	} else if got != string(want) {
		t.Errorf("%s: differs from the committed fixture", name)
	}
}
