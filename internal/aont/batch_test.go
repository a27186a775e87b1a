package aont

import (
	"bytes"
	"crypto/rand"
	"errors"
	"testing"
)

// batchMsgs returns n random messages of lengths spread over 0 to a few
// blocks past 8 KB, and their convergent keys.
func batchMsgs(t *testing.T, n int) (msgs, keys [][]byte) {
	t.Helper()
	for i := 0; i < n; i++ {
		msg := make([]byte, (i*997)%9000)
		if _, err := rand.Read(msg); err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, msg)
		keys = append(keys, ConvergentKey(msg))
	}
	return msgs, keys
}

// TestBatchMatchesPerPackage: TransformBatch and RevertBatch agree byte
// for byte with TransformInPlace and RevertParts package by package, on
// batches both below and above the size at which fingerprint.SumBatch
// switches to its multi-lane kernel.
func TestBatchMatchesPerPackage(t *testing.T) {
	for _, n := range []int{1, 2, 7, 8, 16, 17, 40} {
		msgs, keys := batchMsgs(t, n)
		pkgs := make([][]byte, n)
		for i, msg := range msgs {
			pkgs[i] = append(append([]byte(nil), msg...), make([]byte, TailSize)...)
		}
		if i, err := TransformBatch(pkgs, keys); err != nil {
			t.Fatalf("n=%d: TransformBatch: package %d: %v", n, i, err)
		}
		for i, msg := range msgs {
			want := append(append([]byte(nil), msg...), make([]byte, TailSize)...)
			if err := TransformInPlace(want, keys[i]); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pkgs[i], want) {
				t.Fatalf("n=%d: package %d differs from TransformInPlace", n, i)
			}
		}

		// Revert in place, each package split in the middle of its head,
		// with the message's last bytes landing beside it.
		recovered := make([]byte, n*KeySize)
		firsts, rests, as, bs := make([][]byte, n), make([][]byte, n), make([][]byte, n), make([][]byte, n)
		for i, pkg := range pkgs {
			cut := len(msgs[i]) / 2
			as[i], bs[i] = pkg[:cut], pkg[cut:]
			firsts[i], rests[i] = pkg[:cut], make([]byte, len(msgs[i])-cut)
		}
		if i, err := RevertBatch(recovered, firsts, rests, as, bs); err != nil {
			t.Fatalf("n=%d: RevertBatch: package %d: %v", n, i, err)
		}
		for i, msg := range msgs {
			if got := append(append([]byte(nil), firsts[i]...), rests[i]...); !bytes.Equal(got, msg) {
				t.Fatalf("n=%d: package %d reverted to the wrong message", n, i)
			}
			if !bytes.Equal(recovered[i*KeySize:(i+1)*KeySize], keys[i]) {
				t.Fatalf("n=%d: package %d reverted to the wrong key", n, i)
			}
		}
	}
}

// TestBatchErrorNamesPackage: a batch with one bad package reports that
// package's index, at every position.
func TestBatchErrorNamesPackage(t *testing.T) {
	const n = 17
	for bad := 0; bad < n; bad++ {
		msgs, keys := batchMsgs(t, n)
		pkgs := make([][]byte, n)
		for i, msg := range msgs {
			pkgs[i] = append(append([]byte(nil), msg...), make([]byte, TailSize)...)
		}
		keys[bad] = keys[bad][:KeySize-1]
		if i, err := TransformBatch(pkgs, keys); err == nil || i != bad {
			t.Fatalf("TransformBatch with a short key at %d: index %d, err %v", bad, i, err)
		}

		firsts, rests, as, bs := make([][]byte, n), make([][]byte, n), make([][]byte, n), make([][]byte, n)
		for i, pkg := range pkgs {
			as[i], bs[i], firsts[i] = pkg[:0], pkg, nil
			rests[i] = make([]byte, len(pkg)-TailSize)
		}
		bs[bad] = bs[bad][:TailSize-1]
		i, err := RevertBatch(make([]byte, n*KeySize), firsts, rests, as, bs)
		if !errors.Is(err, ErrPackageTooShort) || i != bad {
			t.Fatalf("RevertBatch with a short package at %d: index %d, err %v", bad, i, err)
		}
	}
}
