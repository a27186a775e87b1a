//go:build linux && amd64

package fingerprint

import (
	"syscall"
	"testing"
	"unsafe"
)

// guarded maps size bytes (rounded up to pages) between two PROT_NONE
// pages and returns them: a read one byte before or after faults.
func guarded(t *testing.T, size int) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	n := (size + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, n+2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	for _, g := range [][]byte{mem[:page], mem[page+n:]} {
		if err := syscall.Mprotect(g, syscall.PROT_NONE); err != nil {
			t.Skipf("mprotect: %v", err)
		}
	}
	return mem[page : page+n]
}

// TestLanesStayInBounds runs the lanes over messages and suffixes that
// sit flush against a PROT_NONE page, alternately ending at the page
// after them and starting at the page before them, with the staging
// blocks flush against one too. A lane that reads a byte outside what
// it was given, an idle lane included, crashes the test binary. It
// covers n = 1-17 and 64 messages, lengths 0-200 and one either side of
// every block boundary up to 2 KB, and suffixes of 0-64 bytes. An
// over-read of memory that happens to be mapped does not fault, so
// checkStep also holds every kernel call to the same bounds: each lane
// must read n blocks inside one message or the staging.
func TestLanesStayInBounds(t *testing.T) {
	if !useKernel {
		t.Skip("no AVX-512: the lanes never run")
	}
	var given [][]byte // the current batch's messages and staging
	checkStep = func(ptr [16]*byte, n int) {
		for i, p := range ptr {
			if !inside(given, p, 64*n) {
				t.Fatalf("lane %d reads %d blocks outside the messages and staging it was given", i, n)
			}
		}
	}
	t.Cleanup(func() { checkStep = nil })
	var lens []int
	for n := 0; n <= 200; n++ {
		lens = append(lens, n)
	}
	for b := 256; b <= 2048; b += 64 {
		lens = append(lens, b-1, b, b+1)
	}
	msgMem, sufMem := guarded(t, 4096), guarded(t, 4096)
	sizes := []int{64}
	for n := 1; n <= 17; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		for suf := 0; suf <= 64; suf++ {
			size := stageSize([][]byte{make([]byte, suf)})
			stageMem := guarded(t, size)
			stage := stageMem[len(stageMem)-size:]
			for round, first := 0, 0; first < len(lens); round, first = round+1, first+n {
				msgs, sufs := make([][]byte, n), make([][]byte, n)
				for i := range msgs {
					k := lens[(first+i)%len(lens)]
					if round%2 == 0 {
						msgs[i] = msgMem[len(msgMem)-k:]
					} else {
						msgs[i] = msgMem[:k:k]
					}
					sufs[i] = sufMem[len(sufMem)-suf:]
				}
				given = append(append(given[:0], msgs...), stage)
				sums := make([]Fingerprint, n)
				sumLanes(sums, msgs, sufs, stage, min(n, minLanes))
				for i := range msgs {
					if want := sumOne(msgs[i], sufs[i]); sums[i] != want {
						t.Fatalf("n=%d suffix=%d round %d: message %d: wrong digest", n, suf, round, i)
					}
				}
			}
		}
	}
}

// inside reports whether the size bytes from p lie within one of bufs.
func inside(bufs [][]byte, p *byte, size int) bool {
	at := uintptr(unsafe.Pointer(p))
	for _, b := range bufs {
		if len(b) == 0 {
			continue
		}
		lo := uintptr(unsafe.Pointer(&b[0]))
		if at >= lo && at+uintptr(size) <= lo+uintptr(len(b)) {
			return true
		}
	}
	return false
}
