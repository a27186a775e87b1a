// Package ring implements a consistent-hash ring over the fingerprint
// space: the placement function that decides which storage shard owns a
// chunk. Each member contributes VirtualNodes points hashed onto a
// uint64 circle; a fingerprint is owned by the first point at or after
// its position, wrapping at the top.
//
// Properties the rest of the system builds on:
//
//   - total and deterministic: every fingerprint has exactly one owner
//     for a fixed member set, computable by any client without
//     coordination (testdata/ pins it);
//   - order-insensitive: points are hashed from member addresses, not
//     slice indices, so two clients configured with the same shards in
//     different order place every chunk identically;
//   - stable under growth: adding a member moves only the keys that
//     land on its new points (~1/N of the space), which is what makes
//     live rebalancing feasible in a later change.
//
// The ring is immutable after construction and safe for concurrent use.
package ring

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/fingerprint"
)

// VirtualNodes balances construction cost (members × VirtualNodes
// hashes, once) against placement uniformity: 512 points per member
// keeps ownership within a few percent of fair for small clusters.
// Every client of a cluster must agree on it, so it is not a setting.
const VirtualNodes = 512

// ErrNoMembers is returned when constructing a ring with no members.
var ErrNoMembers = errors.New("ring: no members")

// point is one virtual node: a position on the circle and the member it
// routes to.
type point struct {
	pos    uint64
	member int
}

// Ring is an immutable consistent-hash ring.
type Ring struct {
	members []string
	points  []point
}

// New builds a ring over the given members (shard addresses). Members
// must be non-empty and unique; their order does not affect placement.
func New(members []string) (*Ring, error) {
	if len(members) == 0 {
		return nil, ErrNoMembers
	}
	r := &Ring{members: append([]string(nil), members...)}
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m == "" {
			return nil, errors.New("ring: empty member address")
		}
		if seen[m] {
			return nil, fmt.Errorf("ring: duplicate member %q", m)
		}
		seen[m] = true
	}

	r.points = make([]point, 0, len(members)*VirtualNodes)
	// The point hash's input starts with eight zero bytes, once a seed
	// that no deployment ever set; they stay, or every placement moves.
	var buf [16]byte
	for mi, m := range members {
		for v := 0; v < VirtualNodes; v++ {
			h := sha256.New()
			binary.BigEndian.PutUint64(buf[8:], uint64(v))
			h.Write(buf[:])
			// Length-prefix the address so (addr, vnode) encodings never
			// collide across members.
			var lenBuf [4]byte
			binary.BigEndian.PutUint32(lenBuf[:], uint32(len(m)))
			h.Write(lenBuf[:])
			h.Write([]byte(m))
			sum := h.Sum(nil)
			r.points = append(r.points, point{
				pos:    binary.BigEndian.Uint64(sum[:8]),
				member: mi,
			})
		}
	}
	// Ties (astronomically unlikely 64-bit collisions) break on member
	// address, not slice index, so placement stays order-insensitive.
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.pos != b.pos {
			return a.pos < b.pos
		}
		return r.members[a.member] < r.members[b.member]
	})
	return r, nil
}

// N returns the member count.
func (r *Ring) N() int { return len(r.members) }

// Members returns the member addresses in construction order.
func (r *Ring) Members() []string {
	return append([]string(nil), r.members...)
}

// locate returns the index (into members) owning a circle position: the
// first point at or after pos, wrapping to the first point.
func (r *Ring) locate(pos uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// Owner returns the member index owning a chunk fingerprint. The
// fingerprint's position is its leading 8 bytes — SHA-256 output is
// uniform, so no re-hash is needed.
func (r *Ring) Owner(fp fingerprint.Fingerprint) int {
	return r.locate(binary.BigEndian.Uint64(fp[:8]))
}

// OwnerKey returns the member index owning an arbitrary key (the
// file-plane router hashes object names through this). The key is
// SHA-256-hashed onto the circle first.
func (r *Ring) OwnerKey(key []byte) int {
	sum := sha256.Sum256(key)
	return r.locate(binary.BigEndian.Uint64(sum[:8]))
}
