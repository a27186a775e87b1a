package oprf

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the OPRF known answers in testdata/ (a break: every stored chunk stops deduplicating)")

// fixtureKeyFile is a committed 1024-bit PKCS#1 key. -update writes a
// fresh one only when the file is missing; the known answers below are
// rewritten against whatever key is committed.
const fixtureKeyFile = "server_key.der"

// fixtureStream is a deterministic io.Reader: SHA-256 of a label and a
// counter, so the blinding factors depend on nothing but the hash.
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

func fixtureKey(t *testing.T) *ServerKey {
	t.Helper()
	path := filepath.Join("testdata", fixtureKeyFile)
	der, err := os.ReadFile(path)
	if os.IsNotExist(err) && *update {
		k, err := GenerateServerKey(DefaultBits, nil)
		if err != nil {
			t.Fatal(err)
		}
		der = MarshalServerKey(k)
		if err := os.WriteFile(path, der, 0o600); err != nil {
			t.Fatal(err)
		}
	} else if err != nil {
		t.Fatal(err)
	}
	k, err := UnmarshalServerKey(der)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(MarshalServerKey(k), der) {
		t.Fatal("server key does not round-trip through PKCS#1")
	}
	return k
}

// fixtureFingerprints are 16 fixed chunk fingerprints.
func fixtureFingerprints() [][]byte {
	out := make([][]byte, 16)
	for i := range out {
		sum := sha256.Sum256([]byte(fmt.Sprintf("reed oprf fixture fingerprint %d", i)))
		out[i] = sum[:]
	}
	return out
}

// fixtureElements are 16 blinded elements: 0, 1, N-1 and 13 spread over
// [0, N) by hashing.
func fixtureElements(n *big.Int) [][]byte {
	nm1 := new(big.Int).Sub(n, big.NewInt(1))
	elems := []*big.Int{big.NewInt(0), big.NewInt(1), nm1}
	stream := &fixtureStream{label: "reed oprf fixture element"}
	for len(elems) < 16 {
		b := make([]byte, len(n.Bytes())+8)
		stream.Read(b)
		elems = append(elems, new(big.Int).Mod(new(big.Int).SetBytes(b), n))
	}
	out := make([][]byte, len(elems))
	for i, e := range elems {
		out[i] = padToModulus(e, n)
	}
	return out
}

// checkLines compares hex lines with testdata/name, or rewrites it
// under -update.
func checkLines(t *testing.T, name string, got [][]byte) {
	t.Helper()
	var b strings.Builder
	for _, g := range got {
		b.WriteString(hex.EncodeToString(g))
		b.WriteByte('\n')
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("%s: output differs from the committed fixture", name)
	}
}

// TestDeriveKnownAnswer pins the MLE key of 16 fingerprints under the
// committed key: a byte that moves here stops every stored chunk from
// deduplicating against new uploads.
func TestDeriveKnownAnswer(t *testing.T) {
	k := fixtureKey(t)
	var got [][]byte
	for _, fp := range fixtureFingerprints() {
		key, err := k.Derive(fp)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, key)
	}
	checkLines(t, "derive.hex", got)
}

// TestEvaluateKnownAnswer pins the key manager's one operation, the
// blind signature, including the edge elements 0, 1 and N-1, one
// Evaluate at a time and as one EvaluateBatch of all sixteen.
func TestEvaluateKnownAnswer(t *testing.T) {
	k := fixtureKey(t)
	elems := fixtureElements(k.PublicParams().N)
	var got [][]byte
	for _, x := range elems {
		y, err := k.Evaluate(x)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, y)
	}
	checkLines(t, "evaluate.hex", got)
	if *update {
		return
	}
	batch, err := k.EvaluateBatch(elems)
	if err != nil {
		t.Fatal(err)
	}
	checkLines(t, "evaluate.hex", batch)
}

// TestBlindFinalizeKnownAnswer pins the client side: Blind under a fixed
// random stream, then Finalize of the key manager's answers. Each line
// is the blinded element followed by the MLE key, which must also equal
// Derive's. The same lines must come out on the prepared parameters (the
// Montgomery kernel where it applies), on a struct literal (math/big),
// and from one BlindBatch of all sixteen fingerprints, which reads the
// stream exactly as sixteen Blinds do.
func TestBlindFinalizeKnownAnswer(t *testing.T) {
	k := fixtureKey(t)
	prepared := k.PublicParams()
	literal := PublicParams{N: prepared.N, E: prepared.E}
	blindEach := func(p PublicParams, fps [][]byte, stream io.Reader) ([][]byte, []*Unblinder, error) {
		var blinded [][]byte
		var us []*Unblinder
		for _, fp := range fps {
			b, u, err := Blind(p, fp, stream)
			if err != nil {
				return nil, nil, err
			}
			blinded, us = append(blinded, b), append(us, u)
		}
		return blinded, us, nil
	}
	for _, c := range []struct {
		name  string
		p     PublicParams
		blind func(PublicParams, [][]byte, io.Reader) ([][]byte, []*Unblinder, error)
	}{
		{"prepared", prepared, blindEach},
		{"literal", literal, blindEach},
		{"batch", prepared, BlindBatch},
	} {
		t.Run(c.name, func(t *testing.T) {
			fps := fixtureFingerprints()
			blinded, us, err := c.blind(c.p, fps, &fixtureStream{label: "reed oprf fixture blinding"})
			if err != nil {
				t.Fatal(err)
			}
			var got [][]byte
			for i, fp := range fps {
				y, err := k.Evaluate(blinded[i])
				if err != nil {
					t.Fatal(err)
				}
				key, err := Finalize(c.p, us[i], y)
				if err != nil {
					t.Fatal(err)
				}
				direct, err := k.Derive(fp)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(key, direct) {
					t.Fatal("blinded protocol output differs from direct derivation")
				}
				got = append(got, append(blinded[i], key...))
			}
			checkLines(t, "blind_finalize.hex", got)
		})
	}
}
