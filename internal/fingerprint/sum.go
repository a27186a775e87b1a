package fingerprint

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"math"
)

// minLanes is the fewest messages the kernel hashes at once. One
// 16-lane step of blocksX16 costs about as much as eight one-block
// crypto/sha256 calls on SHA-NI (BenchmarkSum: at n = 512 the kernel
// alone runs 1.9× as fast as crypto/sha256, and at n = 8 SumBatch and
// crypto/sha256 tie), so a batch below it, and the tail of a batch once
// fewer lanes than it are still busy, go to crypto/sha256.
const minLanes = 8

// MinBatch is the smallest batch SumBatch hands to its kernel: a caller
// that spreads messages over several batches keeps each at least this
// large, or it is hashed one message at a time.
const MinBatch = minLanes

// SumBatch sets sums[i] to the SHA-256 digest of msgs[i] followed by
// suffixes[i], for every i; suffixes is nil when no message has one.
// It is New for many messages at once, byte for byte: on a CPU with
// AVX-512 (internal/cpufeat) a batch of minLanes or more runs sixteen
// messages at a time through blocksX16, and every other batch, and
// every other CPU, hashes with crypto/sha256.
//
// Only the messages' lengths choose what runs when: no branch or
// address depends on their bytes. The copies SumBatch stages of each
// message's last bytes and suffix, and the lane states, are cleared
// before it returns.
func SumBatch(sums []Fingerprint, msgs, suffixes [][]byte) {
	if len(sums) != len(msgs) || (suffixes != nil && len(suffixes) != len(msgs)) {
		panic("fingerprint: SumBatch slices differ in length")
	}
	if !useKernel || len(msgs) < minLanes {
		for i, m := range msgs {
			sums[i] = sumOne(m, suffixAt(suffixes, i))
		}
		return
	}
	stage := make([]byte, stageSize(suffixes))
	defer clear(stage)
	sumLanes(sums, msgs, suffixes, stage, minLanes)
}

func suffixAt(suffixes [][]byte, i int) []byte {
	if suffixes == nil {
		return nil
	}
	return suffixes[i]
}

// sumOne is crypto/sha256 over msg || suffix.
func sumOne(msg, suffix []byte) Fingerprint {
	if len(suffix) == 0 {
		return sha256.Sum256(msg)
	}
	d := sha256.New()
	d.Write(msg)
	d.Write(suffix)
	var fp Fingerprint
	d.Sum(fp[:0])
	return fp
}

// lanes is what blocksX16 reads and writes; gen.go's offsets follow it.
type lanes struct {
	h   [8][16]uint32 // h[j][i] is state word j of lane i
	ptr [16]*byte     // lane i's next block; the kernel only reads it
}

// lane tracks one lane's message. Its first direct blocks are read in
// place from msg; the rest — msg's last partial block, the suffix and
// the padding — from stage, a copy.
type lane struct {
	idx            int // into sums; -1 when the lane is idle
	msg, suffix    []byte
	pos            int // blocks hashed
	direct, blocks int
	stage          []byte
}

// checkStep, when a test sets it, sees the lanes' block pointers and n
// before every blocksX16 call.
var checkStep func(ptr [16]*byte, n int)

var iv = [8]uint32{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19}

// stageSize is the staging sumLanes needs for these suffixes: sixteen
// lanes' worth of a message's staged blocks, which hold under 64 bytes
// of it, the suffix, the 0x80 byte and the 8-byte length.
func stageSize(suffixes [][]byte) int {
	suf := 0
	for _, s := range suffixes {
		suf = max(suf, len(s))
	}
	return 16 * ((63 + suf + 9 + 63) &^ 63)
}

// sumLanes is SumBatch on the kernel, staging in stage (stageSize
// bytes). A lane takes the next message as soon as its current one
// ends; each kernel call runs every lane up to the nearest end of a
// lane's direct or staged blocks. Once fewer than floor lanes have
// work, their messages finish on crypto/sha256 from the lane's state.
func sumLanes(sums []Fingerprint, msgs, suffixes [][]byte, stage []byte, floor int) {
	var (
		l  lanes
		ls [16]lane
	)
	defer func() { l.h = [8][16]uint32{} }()
	stride := len(stage) / 16
	for i := range ls {
		ls[i] = lane{idx: -1, stage: stage[i*stride : (i+1)*stride]}
	}

	next, active := 0, 0
	step := func(n int) {
		live := -1
		for i := range ls {
			if ls[i].idx >= 0 {
				live = i
			}
		}
		for i := range ls {
			if ls[i].idx < 0 {
				l.ptr[i] = l.ptr[live] // in bounds for n blocks; its result is dropped
			}
		}
		if checkStep != nil {
			checkStep(l.ptr, n)
		}
		blocksX16(&l, n)
		for i := range ls {
			ln := &ls[i]
			if ln.idx < 0 {
				continue
			}
			ln.pos += n
			if ln.pos < ln.blocks {
				l.ptr[i] = ln.block()
				continue
			}
			for j := range iv {
				binary.BigEndian.PutUint32(sums[ln.idx][4*j:], l.h[j][i])
			}
			ln.idx, ln.msg, ln.suffix = -1, nil, nil
			active--
		}
	}
	for {
		for i := range ls {
			if ls[i].idx < 0 && next < len(msgs) {
				ls[i].start(next, msgs[next], suffixAt(suffixes, next))
				for j := range iv {
					l.h[j][i] = iv[j]
				}
				l.ptr[i] = ls[i].block()
				next++
				active++
			}
		}
		if active < floor {
			break
		}
		n := math.MaxInt
		for i := range ls {
			if ls[i].idx >= 0 {
				n = min(n, ls[i].left())
			}
		}
		step(n)
	}
	// crypto/sha256 resumes only at a data byte, so a lane that has
	// begun its padding finishes on the kernel first.
	for {
		padding := false
		for i := range ls {
			padding = padding || (ls[i].idx >= 0 && ls[i].pos*64 > len(ls[i].msg)+len(ls[i].suffix))
		}
		if !padding {
			break
		}
		step(1)
	}
	for i := range ls {
		if ln := &ls[i]; ln.idx >= 0 {
			sums[ln.idx] = ln.resume(&l, i)
		}
	}
}

// start puts message idx on the lane and stages its tail: msg's last
// partial block, the suffix and SHA-256's padding.
func (ln *lane) start(idx int, msg, suffix []byte) {
	ln.idx, ln.msg, ln.suffix, ln.pos = idx, msg, suffix, 0
	ln.direct = len(msg) / 64
	total := uint64(len(msg) + len(suffix))
	k := copy(ln.stage, msg[ln.direct*64:])
	k += copy(ln.stage[k:], suffix)
	ln.stage[k] = 0x80
	end := (k + 9 + 63) &^ 63
	clear(ln.stage[k+1 : end-8])
	binary.BigEndian.PutUint64(ln.stage[end-8:end], total*8)
	ln.blocks = ln.direct + end/64
}

// block returns the lane's next block.
func (ln *lane) block() *byte {
	if ln.pos < ln.direct {
		return &ln.msg[ln.pos*64]
	}
	return &ln.stage[(ln.pos-ln.direct)*64]
}

// left is the number of blocks to the end of the lane's direct or staged
// blocks, whichever it is in.
func (ln *lane) left() int {
	if ln.pos < ln.direct {
		return ln.direct - ln.pos
	}
	return ln.blocks - ln.pos
}

// resume finishes the lane's message on crypto/sha256 from lane i's
// state, which has hashed the message's first pos·64 bytes.
func (ln *lane) resume(l *lanes, i int) Fingerprint {
	// The state as crypto/sha256's MarshalBinary writes it: a magic
	// string, the eight state words, an empty block buffer and the
	// length so far.
	var st [4 + 32 + 64 + 8]byte
	defer clear(st[:])
	copy(st[:], "sha\x03")
	for j := range iv {
		binary.BigEndian.PutUint32(st[4+4*j:], l.h[j][i])
	}
	done := ln.pos * 64
	binary.BigEndian.PutUint64(st[len(st)-8:], uint64(done))
	d := sha256.New()
	if err := d.(encoding.BinaryUnmarshaler).UnmarshalBinary(st[:]); err != nil {
		panic("fingerprint: crypto/sha256 refused a resumed state: " + err.Error())
	}
	if done < len(ln.msg) {
		d.Write(ln.msg[done:])
		d.Write(ln.suffix)
	} else {
		d.Write(ln.suffix[done-len(ln.msg):])
	}
	var fp Fingerprint
	d.Sum(fp[:0])
	return fp
}
