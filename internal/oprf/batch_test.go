package oprf

import (
	"bytes"
	"crypto/rsa"
	"errors"
	"fmt"
	"io"
	"math/big"
	"strings"
	"testing"
)

// TestEvaluateFallbackWithoutPrecomputed exercises the full-width
// safety net used when the private key lacks CRT values.
func TestEvaluateFallbackWithoutPrecomputed(t *testing.T) {
	k := serverKey(t)
	stripped := newServerKey(&rsa.PrivateKey{
		PublicKey: k.priv.PublicKey,
		D:         k.priv.D,
		// Primes and Precomputed deliberately absent.
	})
	p := k.PublicParams()
	blinded, u, err := Blind(p, []byte("fallback"), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := stripped.Evaluate(blinded)
	if err != nil {
		t.Fatal(err)
	}
	key, err := Finalize(p, u, resp)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := k.Derive([]byte("fallback"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(key, direct) {
		t.Fatal("full-width fallback output differs from direct derivation")
	}
}

// batchFingerprints returns n distinct fingerprints.
func batchFingerprints(n int) [][]byte {
	fps := make([][]byte, n)
	for i := range fps {
		fps[i] = []byte(fmt.Sprintf("batch fingerprint %d", i))
	}
	return fps
}

// finishBatch evaluates, finalizes and checks every element of a batch
// against the direct derivation.
func finishBatch(t *testing.T, k *ServerKey, p PublicParams, fps, blinded [][]byte, us []*Unblinder) {
	t.Helper()
	for i, fp := range fps {
		resp, err := k.Evaluate(blinded[i])
		if err != nil {
			t.Fatal(err)
		}
		key, err := Finalize(p, us[i], resp)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := k.Derive(fp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(key, direct) {
			t.Fatalf("element %d: batch-blinded output differs from direct derivation", i)
		}
	}
}

// TestBlindBatchProtocolRoundTrip runs batches of several sizes, on the
// prepared parameters and on a struct literal (math/big), through the
// whole protocol.
func TestBlindBatchProtocolRoundTrip(t *testing.T) {
	k := serverKey(t)
	prepared := k.PublicParams()
	literal := PublicParams{N: prepared.N, E: prepared.E}
	for _, p := range []PublicParams{prepared, literal} {
		for _, n := range []int{0, 1, 2, 17} {
			fps := batchFingerprints(n)
			blinded, us, err := BlindBatch(p, fps, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(blinded) != n || len(us) != n {
				t.Fatalf("batch of %d returned %d elements and %d unblinders", n, len(blinded), len(us))
			}
			finishBatch(t, k, p, fps, blinded, us)
		}
	}
}

// TestBlindBatchInvertsEveryFactor replays the random stream to recover
// each r and checks r·r⁻¹ ≡ 1 mod N for every element of a batch.
func TestBlindBatchInvertsEveryFactor(t *testing.T) {
	p := serverKey(t).PublicParams()
	const label = "reed oprf batch inverse"
	_, us, err := BlindBatch(p, batchFingerprints(33), &fixtureStream{label: label})
	if err != nil {
		t.Fatal(err)
	}
	replay := &fixtureStream{label: label}
	for i, u := range us {
		r, err := drawFactor(p.N, replay)
		if err != nil {
			t.Fatal(err)
		}
		if prod := new(big.Int).Mul(r, u.rInv); prod.Mod(prod, p.N).Cmp(big.NewInt(1)) != 0 {
			t.Fatalf("element %d: r·r⁻¹ mod N != 1", i)
		}
	}
}

// TestBlindBatchFactorsAreSingleUse: the same fingerprint blinded twice
// in one batch must give unlinkable, i.e. distinct, elements.
func TestBlindBatchFactorsAreSingleUse(t *testing.T) {
	p := serverKey(t).PublicParams()
	blinded, _, err := BlindBatch(p, [][]byte{[]byte("same"), []byte("same")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(blinded[0], blinded[1]) {
		t.Fatal("one batch reused a blinding factor")
	}
}

// TestBlindBatchFallsBackWhenNotInvertible injects a prime of N as a
// batch's first factor. The product then has no inverse, and the batch
// must fall back to inverting element by element, redrawing only that
// factor: against the same stream without the prime, the other elements
// get factors 0..6 and the redraw gets factor 7. Every key must still be
// correct.
func TestBlindBatchFallsBackWhenNotInvertible(t *testing.T) {
	k := serverKey(t)
	p := k.PublicParams()
	fps := batchFingerprints(8)
	const label = "reed oprf batch fallback"

	_, clean, err := BlindBatch(p, fps, &fixtureStream{label: label})
	if err != nil {
		t.Fatal(err)
	}
	prime := make([]byte, p.ModulusBytes())
	k.priv.Primes[0].FillBytes(prime)
	src := io.MultiReader(bytes.NewReader(prime), &fixtureStream{label: label})
	blinded, us, err := BlindBatch(p, fps, src)
	if err != nil {
		t.Fatal(err)
	}
	finishBatch(t, k, p, fps, blinded, us)
	for i, u := range us {
		want := clean[(i+len(fps)-1)%len(fps)].rInv
		if u.rInv.Cmp(want) != 0 {
			t.Fatalf("element %d: factor is not the expected draw of the element-wise fallback", i)
		}
	}
}

// TestFinalizeBatchMatchesFinalize finishes batches of several sizes,
// on the prepared parameters and on a struct literal, with one
// FinalizeBatch and with a Finalize per element, and checks both against
// the direct derivation.
func TestFinalizeBatchMatchesFinalize(t *testing.T) {
	k := serverKey(t)
	prepared := k.PublicParams()
	for _, p := range []PublicParams{prepared, {N: prepared.N, E: prepared.E}} {
		for _, n := range []int{0, 1, 7, 8, 9, 17} {
			fps := batchFingerprints(n)
			blinded, us, err := BlindBatch(p, fps, nil)
			if err != nil {
				t.Fatal(err)
			}
			resps, err := k.EvaluateBatch(blinded)
			if err != nil {
				t.Fatal(err)
			}
			keys, err := FinalizeBatch(p, us, resps)
			if err != nil {
				t.Fatal(err)
			}
			if len(keys) != n {
				t.Fatalf("batch of %d returned %d keys", n, len(keys))
			}
			finishBatch(t, k, p, fps, blinded, us)
			for i, fp := range fps {
				direct, err := k.Derive(fp)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(keys[i], direct) {
					t.Fatalf("batch of %d, element %d: FinalizeBatch differs from direct derivation", n, i)
				}
			}
		}
	}
}

// TestFinalizeBatchRejectsBeforeExponentiating puts a tampered response
// at index 2 and N at index 5 of a batch: FinalizeBatch must refuse it
// for element 5's range before it verifies element 2. A nil unblinder
// and a failed verification are named by index too.
func TestFinalizeBatchRejectsBeforeExponentiating(t *testing.T) {
	k := serverKey(t)
	p := k.PublicParams()
	blinded, us, err := BlindBatch(p, batchFingerprints(9), nil)
	if err != nil {
		t.Fatal(err)
	}
	resps, err := k.EvaluateBatch(blinded)
	if err != nil {
		t.Fatal(err)
	}
	resps[2][len(resps[2])-1] ^= 1
	good := resps[5]
	resps[5] = p.N.Bytes()
	keys, err := FinalizeBatch(p, us, resps)
	if !errors.Is(err, ErrBadElement) || keys != nil {
		t.Fatalf("FinalizeBatch = %d keys, %v; want none and ErrBadElement", len(keys), err)
	}
	if !strings.Contains(err.Error(), "element 5") {
		t.Fatalf("error %q does not name element 5", err)
	}

	resps[5] = good
	if _, err := FinalizeBatch(p, us, resps); !errors.Is(err, ErrVerifyFailed) || !strings.Contains(err.Error(), "element 2") {
		t.Fatalf("error %v; want ErrVerifyFailed naming element 2", err)
	}
	us[7] = nil
	if _, err := FinalizeBatch(p, us, resps); err == nil || !strings.Contains(err.Error(), "element 7") {
		t.Fatalf("error %v; want one naming the nil unblinder at element 7", err)
	}
	if _, err := FinalizeBatch(p, us[:3], resps); err == nil {
		t.Fatal("FinalizeBatch accepted 3 unblinders for 9 responses")
	}
}

func TestBlindBatchRejectsBadParams(t *testing.T) {
	if _, _, err := BlindBatch(PublicParams{}, batchFingerprints(2), nil); err == nil {
		t.Fatal("expected error for invalid params")
	}
}

// BenchmarkKeygenPerChunk measures end-to-end MLE keygen cost for one
// 8 KiB chunk as the client and key manager run it, in batches of 1 024
// (the client's default batch size): BlindBatch, EvaluateBatch,
// FinalizeBatch. It reports MB/s of chunk data keyed. This is the
// paper's Exp#1 bottleneck (12-14 MB/s on their testbed). Across
// commits the same cost is compared through the repository benchmark's
// oprf.*_us_per_chunk and keymanager.generate_us_per_chunk lines.
func BenchmarkKeygenPerChunk(b *testing.B) {
	k := serverKey(b)
	p := k.PublicParams()
	const chunkSize, batch = 8 << 10, 1024
	fps := make([][]byte, batch)
	for i := range fps {
		fps[i] = make([]byte, 32)
	}
	b.SetBytes(chunkSize)
	b.ResetTimer()
	for done := 0; done < b.N; done += batch {
		n := min(batch, b.N-done)
		for i := range fps[:n] {
			j := done + i
			fps[i][0], fps[i][1], fps[i][2] = byte(j), byte(j>>8), byte(j>>16)
		}
		blinded, us, err := BlindBatch(p, fps[:n], nil)
		if err != nil {
			b.Fatal(err)
		}
		resps, err := k.EvaluateBatch(blinded)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := FinalizeBatch(p, us, resps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFinalizeBatch is the client's finalize cost per chunk in a
// batch of 1 024; ns/op is per element.
func BenchmarkFinalizeBatch(b *testing.B) {
	k := serverKey(b)
	p := k.PublicParams()
	blinded, us, err := BlindBatch(p, batchFingerprints(1024), nil)
	if err != nil {
		b.Fatal(err)
	}
	resps, err := k.EvaluateBatch(blinded)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for done := 0; done < b.N; done += len(us) {
		n := min(len(us), b.N-done)
		if _, err := FinalizeBatch(p, us[:n], resps[:n]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlindBatch is the client's blinding cost per chunk in a batch
// of 1 024.
func BenchmarkBlindBatch(b *testing.B) {
	p := serverKey(b).PublicParams()
	fps := batchFingerprints(1024)
	b.ResetTimer()
	for done := 0; done < b.N; done += len(fps) {
		if _, _, err := BlindBatch(p, fps[:min(len(fps), b.N-done)], nil); err != nil {
			b.Fatal(err)
		}
	}
}
