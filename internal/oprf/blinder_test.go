package oprf

import (
	"bytes"
	"crypto/rsa"
	"testing"
	"time"
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

func TestBlinderProtocolRoundTrip(t *testing.T) {
	k := serverKey(t)
	p := k.PublicParams()
	bl, err := NewBlinder(p, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bl.Close()

	fp := []byte("pooled-fingerprint")
	blinded, u, err := bl.Blind(fp)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := k.Evaluate(blinded)
	if err != nil {
		t.Fatal(err)
	}
	key, err := Finalize(p, u, resp)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := k.Derive(fp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(key, direct) {
		t.Fatal("pooled blinding output differs from direct derivation")
	}
}

// TestBlinderFactorsAreSingleUse: two pooled blindings of the same
// fingerprint must be unlinkable, i.e. produce distinct blinded
// elements.
func TestBlinderFactorsAreSingleUse(t *testing.T) {
	k := serverKey(t)
	bl, err := NewBlinder(k.PublicParams(), 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bl.Close()
	b1, _, err := bl.Blind([]byte("same"))
	if err != nil {
		t.Fatal(err)
	}
	b2, _, err := bl.Blind([]byte("same"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b1, b2) {
		t.Fatal("pooled blinder reused a blinding factor")
	}
}

// TestBlinderFallbackWhenDrained: Blind must keep working (inline
// generation) even when the pool is dry — here, after Close has stopped
// the refill worker and the buffer is exhausted.
func TestBlinderFallbackWhenDrained(t *testing.T) {
	k := serverKey(t)
	p := k.PublicParams()
	bl, err := NewBlinder(p, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	bl.Close()
	// Drain whatever the worker managed to queue before stopping, plus
	// a few more to force the inline path.
	for i := 0; i < 4; i++ {
		blinded, u, err := bl.Blind([]byte("drained"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := k.Evaluate(blinded)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Finalize(p, u, resp); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBlinderRejectsBadParams(t *testing.T) {
	if _, err := NewBlinder(PublicParams{}, 4, nil); err == nil {
		t.Fatal("expected error for invalid params")
	}
}

func TestBlinderCloseIdempotent(t *testing.T) {
	bl, err := NewBlinder(serverKey(t).PublicParams(), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	bl.Close()
	bl.Close()
}

// BenchmarkKeygenPerChunk measures end-to-end MLE keygen cost for one
// 8 KiB chunk — pooled blind, CRT server evaluate, finalize — and
// reports it as MB/s of chunk data keyed. This is the paper's Exp#1
// bottleneck (12-14 MB/s on their testbed); the committed BENCH_oprf
// baseline ratchets it.
func BenchmarkKeygenPerChunk(b *testing.B) {
	k := serverKey(b)
	p := k.PublicParams()
	bl, err := NewBlinder(p, DefaultBlinderDepth, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer bl.Close()
	for len(bl.factors) < cap(bl.factors) && len(bl.factors) < b.N {
		time.Sleep(time.Millisecond)
	}
	const chunkSize = 8 << 10
	fp := make([]byte, 32)
	b.SetBytes(chunkSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp[0], fp[1], fp[2] = byte(i), byte(i>>8), byte(i>>16)
		blinded, u, err := bl.Blind(fp)
		if err != nil {
			b.Fatal(err)
		}
		resp, err := k.Evaluate(blinded)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Finalize(p, u, resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlinderBlind measures the pooled hot path: the refill
// goroutine keeps the pool warm while the timed loop consumes.
func BenchmarkBlinderBlind(b *testing.B) {
	k := serverKey(b)
	bl, err := NewBlinder(k.PublicParams(), DefaultBlinderDepth, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer bl.Close()
	// Give the refill worker a head start so the benchmark measures the
	// pooled path rather than pool warm-up.
	for len(bl.factors) < cap(bl.factors) && len(bl.factors) < b.N {
		time.Sleep(time.Millisecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := bl.Blind([]byte("bench")); err != nil {
			b.Fatal(err)
		}
	}
}
