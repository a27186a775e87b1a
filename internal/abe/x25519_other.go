//go:build !amd64

package abe

// useKernel is false: ladderX8 is amd64 assembly, and agree runs every
// agreement on crypto/ecdh.
var useKernel = false

func ladderX8(l *ladder) {
	panic("abe: no X25519 kernel on this architecture")
}
