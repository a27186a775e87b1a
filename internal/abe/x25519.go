package abe

import (
	"crypto/ecdh"
	"encoding/binary"

	"repro/internal/core"
)

//go:generate go run gen.go

// Every X25519 agreement of a ciphertext shares its ephemeral scalar k:
// X25519(k, y_a) for each leaf and c1 = X25519(k, 9). agree computes
// them eight at a time on ladderX8, an AVX-512 IFMA Montgomery ladder
// (gen.go explains it), and falls back to crypto/ecdh one at a time on a
// CPU without IFMA and for a batch of fewer than kernelMinLanes live
// lanes. Both paths give the same bytes for every input, which the
// tests check against crypto/ecdh.

// lanes is ladderX8's width: eight agreements per call.
const lanes = 8

// kernelMinLanes is the fewest live lanes a ladderX8 call is run for.
// The call costs the same for one live lane as for eight, about as much
// as one crypto/ecdh agreement (BenchmarkX25519), so it is ahead from
// two agreements on.
const kernelMinLanes = 2

// ladder is ladderX8's working memory, laid out as gen.go expects: the
// clamped scalar as four little-endian words, padding to 64 bytes, then
// field-element slots of five 64-byte rows, row k holding limb k of all
// eight lanes. Slot 0 holds u on entry and the agreement on return.
type ladder [64 + 14*feBytes]byte

const (
	feBytes = 5 * 64
	x1Slot  = 64
	mask52  = 1<<52 - 1
	mask47  = 1<<47 - 1
)

// basePoint is the u-coordinate 9: X25519(k, 9) is k's public key. On
// the crypto/ecdh path agree takes it from ecdh.PrivateKey, whose
// constructor computes it anyway.
var basePoint, _ = ecdh.X25519().NewPublicKey([]byte{9, 31: 0})

// agree sets shared[32i:32i+32] = X25519(scalar, peers[i]) for every i.
// If an agreement fails, it returns the index of the first that does
// and crypto/ecdh's error for it, which is the low-order error when
// the agreement is all zero.
func agree(shared, scalar []byte, peers []*ecdh.PublicKey) (int, error) {
	var priv *ecdh.PrivateKey
	for lo := 0; lo < len(peers); lo += lanes {
		batch := peers[lo:min(lo+lanes, len(peers))]
		kernel := useKernel && len(batch) >= kernelMinLanes
		if kernel {
			x25519X8(shared[32*lo:], scalar, batch)
		}
		for i, peer := range batch {
			dst := shared[32*(lo+i) : 32*(lo+i+1)]
			if kernel && !allZero(dst) {
				continue
			}
			if priv == nil {
				var err error
				if priv, err = ecdh.X25519().NewPrivateKey(scalar); err != nil {
					return lo + i, err
				}
			}
			if peer == basePoint {
				// NewPrivateKey has already computed X25519(scalar, 9).
				copy(dst, priv.PublicKey().Bytes())
				continue
			}
			z, err := priv.ECDH(peer)
			if err != nil {
				return lo + i, err
			}
			copy(dst, z)
			core.Wipe(z)
		}
	}
	return 0, nil
}

// x25519X8 sets out[32i:32i+32] = X25519(scalar, peers[i]) for up to
// eight peers in one ladderX8 call. An all-zero agreement, the low-order
// case, comes out as zeros.
func x25519X8(out, scalar []byte, peers []*ecdh.PublicKey) {
	var l ladder //reed:secret — the scalar and every lane's ladder state
	defer core.Wipe(l[:])
	copy(l[:32], scalar)
	l[0] &= 248
	l[31] &= 127
	l[31] |= 64
	for i, peer := range peers {
		u := peer.Bytes()
		w0 := binary.LittleEndian.Uint64(u[0:])
		w1 := binary.LittleEndian.Uint64(u[8:])
		w2 := binary.LittleEndian.Uint64(u[16:])
		w3 := binary.LittleEndian.Uint64(u[24:]) & (1<<63 - 1) // RFC 7748 masks bit 255
		setLimbs(&l, i, [5]uint64{
			w0 & mask52,
			(w0>>52 | w1<<12) & mask52,
			(w1>>40 | w2<<24) & mask52,
			(w2>>28 | w3<<36) & mask52,
			w3 >> 16,
		})
	}
	ladderX8(&l)
	for i := range peers {
		h := limbs(&l, i)
		freeze(&h)
		dst := out[32*i:]
		binary.LittleEndian.PutUint64(dst[0:], h[0]|h[1]<<52)
		binary.LittleEndian.PutUint64(dst[8:], h[1]>>12|h[2]<<40)
		binary.LittleEndian.PutUint64(dst[16:], h[2]>>24|h[3]<<28)
		binary.LittleEndian.PutUint64(dst[24:], h[3]>>36|h[4]<<16)
	}
}

func setLimbs(l *ladder, lane int, h [5]uint64) {
	for k, v := range h {
		binary.LittleEndian.PutUint64(l[x1Slot+64*k+8*lane:], v)
	}
}

func limbs(l *ladder, lane int) (h [5]uint64) {
	for k := range h {
		h[k] = binary.LittleEndian.Uint64(l[x1Slot+64*k+8*lane:])
	}
	return h
}

// freeze takes h, limbs 0-3 below 2⁵² and limb 4 below 2⁴⁸, to the
// canonical representative of h mod p, without a branch: two folds of
// the bits from 255 up leave h below 2²⁵⁵, and h + 19 reaches 2²⁵⁵
// exactly when h ≥ p, in which case it is h - p with bit 255 cleared.
func freeze(h *[5]uint64) {
	for range 2 {
		c := h[4] >> 47
		h[4] &= mask47
		h[0] += 19 * c
		for k := 0; k < 4; k++ {
			c = h[k] >> 52
			h[k] &= mask52
			h[k+1] += c
		}
	}
	var s [5]uint64
	c := uint64(19)
	for k := 0; k < 4; k++ {
		s[k] = h[k] + c
		c = s[k] >> 52
		s[k] &= mask52
	}
	s[4] = h[4] + c
	keep := -(s[4] >> 47) // all ones when h ≥ p
	s[4] &= mask47
	for k := range h {
		h[k] ^= (h[k] ^ s[k]) & keep
	}
}

func allZero(b []byte) bool {
	var or byte
	for _, v := range b {
		or |= v
	}
	return or == 0
}
