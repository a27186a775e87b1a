package rsacrt_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/big"
	"os"
	"strings"
	"testing"

	"repro/internal/keyreg"
	"repro/internal/oprf"
	"repro/internal/rsacrt"
)

// The OPRF and key-regression packages pin their bytes with committed
// known answers, checked there on this machine's fastest path. These
// tests check the same files on every path: a byte that differs
// between kernels would split deduplication or strand key states
// between machines.

// readHex reads a known-answer file of one hex value per line.
func readHex(t *testing.T, path string) [][]byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, line := range strings.Fields(string(b)) {
		v, err := hex.DecodeString(line)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, v)
	}
	return out
}

func fixtureServerKey(t *testing.T) *oprf.ServerKey {
	t.Helper()
	der, err := os.ReadFile("../oprf/testdata/server_key.der")
	if err != nil {
		t.Fatal(err)
	}
	k, err := oprf.UnmarshalServerKey(der)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestOPRFEvaluateFixtureOnEveryPath evaluates evaluate.hex's inputs,
// recovered from its answers as yᵉ mod N, as one EvaluateBatch of all
// sixteen, one of six (a partial second group of four) and sixteen
// Evaluates.
func TestOPRFEvaluateFixtureOnEveryPath(t *testing.T) {
	want := readHex(t, "../oprf/testdata/evaluate.hex")
	for _, path := range rsacrt.Paths() {
		t.Run(path, func(t *testing.T) {
			rsacrt.ForcePath(t, path)
			k := fixtureServerKey(t)
			p := k.PublicParams()
			in := make([][]byte, len(want))
			for i, y := range want {
				x := new(big.Int).Exp(new(big.Int).SetBytes(y), p.E, p.N)
				in[i] = x.FillBytes(make([]byte, p.ModulusBytes()))
			}
			for _, n := range []int{len(in), 6} {
				got, err := k.EvaluateBatch(in[:n])
				if err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("batch of %d: element %d differs from evaluate.hex", n, i)
					}
				}
			}
			for i := range in {
				if got, err := k.Evaluate(in[i]); err != nil || !bytes.Equal(got, want[i]) {
					t.Fatalf("Evaluate of element %d differs from evaluate.hex (%v)", i, err)
				}
			}
		})
	}
}

// fixtureStream is oprf's fixture blinding stream: SHA-256 of a counter
// and a label.
type fixtureStream struct {
	label string
	ctr   uint32
	buf   []byte
}

func (s *fixtureStream) Read(p []byte) (int, error) {
	for len(s.buf) < len(p) {
		var c [4]byte
		binary.BigEndian.PutUint32(c[:], s.ctr)
		s.ctr++
		sum := sha256.Sum256(append(c[:], s.label...))
		s.buf = append(s.buf, sum[:]...)
	}
	n := copy(p, s.buf)
	s.buf = s.buf[n:]
	return n, nil
}

// TestOPRFBlindFinalizeFixtureOnEveryPath replays blind_finalize.hex:
// BlindBatch of oprf's sixteen fixture fingerprints under its stream,
// one EvaluateBatch, then one FinalizeBatch of all sixteen answers, one
// of the last nine (a full group of eight and a single) and a Finalize
// of each.
func TestOPRFBlindFinalizeFixtureOnEveryPath(t *testing.T) {
	want := readHex(t, "../oprf/testdata/blind_finalize.hex")
	fps := make([][]byte, len(want))
	for i := range fps {
		sum := sha256.Sum256([]byte(fmt.Sprintf("reed oprf fixture fingerprint %d", i)))
		fps[i] = sum[:]
	}
	for _, path := range rsacrt.Paths() {
		t.Run(path, func(t *testing.T) {
			rsacrt.ForcePath(t, path)
			k := fixtureServerKey(t)
			p := k.PublicParams()
			blinded, us, err := oprf.BlindBatch(p, fps, &fixtureStream{label: "reed oprf fixture blinding"})
			if err != nil {
				t.Fatal(err)
			}
			ys, err := k.EvaluateBatch(blinded)
			if err != nil {
				t.Fatal(err)
			}
			all, err := oprf.FinalizeBatch(p, us, ys)
			if err != nil {
				t.Fatal(err)
			}
			tail, err := oprf.FinalizeBatch(p, us[7:], ys[7:])
			if err != nil {
				t.Fatal(err)
			}
			for i := range fps {
				key, err := oprf.Finalize(p, us[i], ys[i])
				if err != nil {
					t.Fatal(err)
				}
				if got := append(blinded[i], key...); !bytes.Equal(got, want[i]) {
					t.Fatalf("line %d differs from blind_finalize.hex", i)
				}
				if !bytes.Equal(all[i], key) || i >= 7 && !bytes.Equal(tail[i-7], key) {
					t.Fatalf("line %d: FinalizeBatch differs from blind_finalize.hex", i)
				}
			}
		})
	}
}

// TestKeyregWindFixtureOnEveryPath replays winds.hex: three winds of the
// committed owner, an unwind of the newest state to every version, and
// every one-step unwind at once through Public.ExpBatch.
func TestKeyregWindFixtureOnEveryPath(t *testing.T) {
	want := readHex(t, "../keyreg/testdata/winds.hex")
	b, err := os.ReadFile("../keyreg/testdata/owner.bin")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range rsacrt.Paths() {
		t.Run(path, func(t *testing.T) {
			rsacrt.ForcePath(t, path)
			o, err := keyreg.UnmarshalOwner(b)
			if err != nil {
				t.Fatal(err)
			}
			states := []keyreg.State{o.Current()}
			for len(states) < len(want) {
				states = append(states, o.Wind())
			}
			for i, st := range states {
				if !bytes.Equal(st.Marshal(), want[i]) {
					t.Fatalf("state %d differs from winds.hex", i)
				}
				got, err := keyreg.Unwind(o.Public(), states[len(states)-1], st.Version)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Marshal(), want[i]) {
					t.Fatalf("unwind to version %d differs from winds.hex", st.Version)
				}
			}
			pk := o.Public()
			pub := rsacrt.NewPublic(pk.N, pk.E)
			if got := rsacrt.PublicPath(pub); got != path {
				t.Fatalf("public key prepared for %s, want %s", got, path)
			}
			var newer []*big.Int
			for _, st := range states[1:] {
				newer = append(newer, new(big.Int).SetBytes(st.Value))
			}
			for i, v := range pub.ExpBatch(newer) {
				if !bytes.Equal(v.FillBytes(make([]byte, len(states[i].Value))), states[i].Value) {
					t.Fatalf("ExpBatch's unwind of version %d differs from winds.hex", states[i+1].Version)
				}
			}
		})
	}
}
