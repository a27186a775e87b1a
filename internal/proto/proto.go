// Package proto defines REED's wire protocol: length-prefixed binary
// frames carrying typed messages between clients, storage servers, and
// the key manager.
//
// Every frame is [4-byte big-endian length][1-byte type][8-byte
// big-endian request ID][payload]; the length counts everything after
// itself. The request ID tags a response to the request that caused it,
// so many requests may be in flight on one connection and responses may
// return in any order (see internal/rpcmux for the client-side
// demultiplexer and the servers' bounded worker pools for the other
// side). The paper's prototype instead opened many connections per
// client for parallelism (Section V-B); one multiplexed connection now
// pipelines the same work. Payload encodings live beside their message
// types below so both endpoints share one source of truth.
package proto

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/binenc"
	"repro/internal/fileindex"
	"repro/internal/fingerprint"
	"repro/internal/metrics"
)

// MaxFrameSize bounds a single frame (64 MiB) so a corrupt length prefix
// cannot trigger an unbounded allocation.
const MaxFrameSize = 64 << 20

// MsgType identifies a frame's message type.
type MsgType uint8

// Message types. Requests and responses are paired.
const (
	MsgError MsgType = iota + 1

	// Key manager.
	MsgKMParamsReq
	MsgKMParamsResp
	MsgKeyGenReq
	MsgKeyGenResp

	// Storage server: chunk plane.
	MsgPutChunksReq
	MsgPutChunksResp
	MsgGetChunksReq
	MsgGetChunksResp

	// Storage server: blob plane (recipes, stub files, key states).
	MsgPutBlobReq
	MsgPutBlobResp
	MsgGetBlobReq
	MsgGetBlobResp

	// Storage server: dedup statistics.
	MsgStatsReq
	MsgStatsResp

	// Storage server: blob listing.
	MsgListBlobsReq
	MsgListBlobsResp

	// Storage server: deletion (secure deletion + chunk GC).
	MsgDerefChunksReq
	MsgDerefChunksResp
	MsgDeleteBlobReq
	MsgDeleteBlobResp

	// Storage server: remote data checking.
	MsgChallengeReq
	MsgChallengeResp

	// Metrics snapshot (served by both storage servers and the key
	// manager; see internal/metrics).
	MsgMetricsReq
	MsgMetricsResp

	// Storage server: two-phase upload (whole-file fast path and
	// batched negative lookup; see internal/fileindex and DESIGN.md
	// §11). New types append here so older peers fail loudly with
	// "unexpected message" instead of misparsing.
	MsgCheckFileReq
	MsgCheckFileResp
	MsgRegisterFileReq
	MsgRegisterFileResp
	MsgHasChunksReq
	MsgHasChunksResp
	MsgRefChunksReq
	MsgRefChunksResp
)

// RetryClass says who, if anyone, may send a request again after a
// transport fault once the first delivery may already have executed.
// The zero value marks a MsgType that is not a request.
type RetryClass uint8

const (
	// ReplayByTransport: reads, and whole-object overwrites whose replay
	// converges to the same state (blobs, whole-file index entries).
	// rpcmux re-issues them transparently and the router never refuses
	// them, which is also what heals a shard's down mark.
	ReplayByTransport RetryClass = iota + 1
	// ResendByRouter: refcount increments. A replay can only
	// over-retain, never lose data, so the transport does not re-issue
	// them but cluster.Router re-sends the batch under its retry policy.
	ResendByRouter
	// NeverReplay: refcount decrements and deletions. A replay loses
	// data or flips success to not-found, so no layer re-sends one that
	// may have executed; the caller decides.
	NeverReplay
)

// msgTypes is the one per-MsgType table: the name behind String and
// OpNames, and each request's retry class — the only place that policy
// is written down; rpcmux and cluster read it through Retry. A
// duplicate index does not compile, and TestMsgTypeTable checks that
// no request is missing a class. A package-level array keeps String
// allocation-free on the error and trace paths.
var msgTypes = [...]struct {
	name  string
	retry RetryClass
}{
	MsgError:            {name: "Error"},
	MsgKMParamsReq:      {"KMParamsReq", ReplayByTransport},
	MsgKMParamsResp:     {name: "KMParamsResp"},
	MsgKeyGenReq:        {"KeyGenReq", ReplayByTransport},
	MsgKeyGenResp:       {name: "KeyGenResp"},
	MsgPutChunksReq:     {"PutChunksReq", ResendByRouter},
	MsgPutChunksResp:    {name: "PutChunksResp"},
	MsgGetChunksReq:     {"GetChunksReq", ReplayByTransport},
	MsgGetChunksResp:    {name: "GetChunksResp"},
	MsgPutBlobReq:       {"PutBlobReq", ReplayByTransport},
	MsgPutBlobResp:      {name: "PutBlobResp"},
	MsgGetBlobReq:       {"GetBlobReq", ReplayByTransport},
	MsgGetBlobResp:      {name: "GetBlobResp"},
	MsgStatsReq:         {"StatsReq", ReplayByTransport},
	MsgStatsResp:        {name: "StatsResp"},
	MsgListBlobsReq:     {"ListBlobsReq", ReplayByTransport},
	MsgListBlobsResp:    {name: "ListBlobsResp"},
	MsgDerefChunksReq:   {"DerefChunksReq", NeverReplay},
	MsgDerefChunksResp:  {name: "DerefChunksResp"},
	MsgDeleteBlobReq:    {"DeleteBlobReq", NeverReplay},
	MsgDeleteBlobResp:   {name: "DeleteBlobResp"},
	MsgChallengeReq:     {"ChallengeReq", ReplayByTransport},
	MsgChallengeResp:    {name: "ChallengeResp"},
	MsgMetricsReq:       {"MetricsReq", ReplayByTransport},
	MsgMetricsResp:      {name: "MetricsResp"},
	MsgCheckFileReq:     {"CheckFileReq", ReplayByTransport},
	MsgCheckFileResp:    {name: "CheckFileResp"},
	MsgRegisterFileReq:  {"RegisterFileReq", ReplayByTransport},
	MsgRegisterFileResp: {name: "RegisterFileResp"},
	MsgHasChunksReq:     {"HasChunksReq", ReplayByTransport},
	MsgHasChunksResp:    {name: "HasChunksResp"},
	MsgRefChunksReq:     {"RefChunksReq", ResendByRouter},
	MsgRefChunksResp:    {name: "RefChunksResp"},
}

// Retry returns t's retry class: zero for responses, MsgError and
// unknown types, which no layer may therefore replay.
func (t MsgType) Retry() RetryClass {
	if int(t) < len(msgTypes) {
		return msgTypes[t].retry
	}
	return 0
}

// Response returns the type answering request t: by the numbering
// above, every response directly follows its request.
func (t MsgType) Response() MsgType { return t + 1 }

// OpNames returns operation labels indexed by request MsgType — the
// request name with its "Req" suffix trimmed ("PutChunks", "KeyGen").
// Response and error slots are empty, so an OpSet built from this slice
// drops observations for non-request types. The slice is freshly
// allocated; callers may blank entries they do not serve.
func OpNames() []string {
	names := make([]string, len(msgTypes))
	for t, m := range msgTypes {
		if m.retry != 0 {
			names[t] = strings.TrimSuffix(m.name, "Req")
		}
	}
	return names
}

// String implements fmt.Stringer for diagnostics.
func (t MsgType) String() string {
	if int(t) < len(msgTypes) && msgTypes[t].name != "" {
		return msgTypes[t].name
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

var (
	// ErrFrameTooLarge is returned when a frame exceeds MaxFrameSize.
	ErrFrameTooLarge = errors.New("proto: frame too large")
	// ErrBadMessage is returned for undecodable payloads.
	ErrBadMessage = errors.New("proto: malformed message")
)

// RemoteError is an error reported by the peer via MsgError.
type RemoteError struct {
	Message string
}

// Error implements error.
func (e *RemoteError) Error() string { return "remote: " + e.Message }

// frameOverhead is the framed size of a frame's non-payload body: the
// type byte plus the 8-byte request ID.
const frameOverhead = 1 + 8

// WriteFrame writes one frame tagged with the given request ID, its
// payload the concatenation of the given parts: one Write for the header
// and one per part. Responses carry the ID of the request that caused
// them; unsolicited frames use ID 0.
func WriteFrame(w io.Writer, t MsgType, id uint64, payload ...[]byte) error {
	var header [4 + frameOverhead]byte
	if err := PutFrameHeader(header[:], t, id, payloadSize(payload)); err != nil {
		return err
	}
	if _, err := w.Write(header[:]); err != nil {
		return fmt.Errorf("proto: write header: %w", err)
	}
	for _, part := range payload {
		if _, err := w.Write(part); err != nil {
			return fmt.Errorf("proto: write payload: %w", err)
		}
	}
	return nil
}

// payloadSize is the length of the payload parts laid end to end.
func payloadSize(parts [][]byte) int {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	return n
}

// ReadFrame reads one frame, returning its type, request ID, and
// payload.
func ReadFrame(r io.Reader) (MsgType, uint64, []byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, 0, nil, err // io.EOF propagates for clean shutdown
	}
	size := binary.BigEndian.Uint32(lenBuf[:])
	if size < frameOverhead {
		return 0, 0, nil, fmt.Errorf("%w: short frame (%d bytes)", ErrBadMessage, size)
	}
	if size > MaxFrameSize {
		return 0, 0, nil, ErrFrameTooLarge
	}
	body := make([]byte, size)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, 0, nil, fmt.Errorf("proto: read body: %w", err)
	}
	return MsgType(body[0]), binary.BigEndian.Uint64(body[1:9]), body[9:], nil
}

// EncodeError encodes an MsgError payload.
func EncodeError(msg string) []byte {
	w := binenc.NewWriter(len(msg) + 4)
	w.String(msg)
	return w.Bytes()
}

// DecodeError decodes an MsgError payload.
func DecodeError(b []byte) (*RemoteError, error) {
	r := binenc.NewReader(b)
	msg, err := r.ReadString()
	if err != nil {
		return nil, fmt.Errorf("%w: error payload: %v", ErrBadMessage, err)
	}
	return &RemoteError{Message: msg}, nil
}

// EncodeBlobList encodes a list of opaque byte strings (key-gen requests
// and responses both use this shape).
func EncodeBlobList(items [][]byte) []byte {
	size := 8
	for _, it := range items {
		size += len(it) + 4
	}
	w := binenc.NewWriter(size)
	w.Uvarint(uint64(len(items)))
	for _, it := range items {
		w.WriteBytes(it)
	}
	return w.Bytes()
}

// DecodeBlobList decodes EncodeBlobList output. maxItems bounds the list.
// The items alias b, which the caller must own — a payload fresh from
// ReadFrame is — and each is capacity-capped at its own end, so an
// append to one item can never write into the next.
func DecodeBlobList(b []byte, maxItems int) ([][]byte, error) {
	r := binenc.NewReader(b)
	count, err := r.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: list count: %v", ErrBadMessage, err)
	}
	if count > uint64(maxItems) {
		return nil, fmt.Errorf("%w: list of %d exceeds limit %d", ErrBadMessage, count, maxItems)
	}
	items := make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		it, err := r.ReadBytes()
		if err != nil {
			return nil, fmt.Errorf("%w: list item %d: %v", ErrBadMessage, i, err)
		}
		items = append(items, it[:len(it):len(it)])
	}
	if !r.Done() {
		return nil, fmt.Errorf("%w: trailing bytes", ErrBadMessage)
	}
	return items, nil
}

// EncodeListBlobsReq encodes a blob-listing request for one namespace.
func EncodeListBlobsReq(ns string) []byte {
	w := binenc.NewWriter(len(ns) + 4)
	w.String(ns)
	return w.Bytes()
}

// DecodeListBlobsReq decodes EncodeListBlobsReq output.
func DecodeListBlobsReq(b []byte) (string, error) {
	r := binenc.NewReader(b)
	ns, err := r.ReadString()
	if err != nil {
		return "", fmt.Errorf("%w: list ns: %v", ErrBadMessage, err)
	}
	if !r.Done() {
		return "", fmt.Errorf("%w: trailing bytes", ErrBadMessage)
	}
	return ns, nil
}

// EncodeListBlobsResp encodes the names in a namespace.
func EncodeListBlobsResp(names []string) []byte {
	size := 8
	for _, n := range names {
		size += len(n) + 4
	}
	w := binenc.NewWriter(size)
	w.Uvarint(uint64(len(names)))
	for _, n := range names {
		w.String(n)
	}
	return w.Bytes()
}

// DecodeListBlobsResp decodes EncodeListBlobsResp output.
func DecodeListBlobsResp(b []byte) ([]string, error) {
	r := binenc.NewReader(b)
	count, err := r.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: list count: %v", ErrBadMessage, err)
	}
	if count > 1<<24 {
		return nil, fmt.Errorf("%w: listing too large", ErrBadMessage)
	}
	names := make([]string, 0, count)
	for i := uint64(0); i < count; i++ {
		n, err := r.ReadString()
		if err != nil {
			return nil, fmt.Errorf("%w: list name %d: %v", ErrBadMessage, i, err)
		}
		names = append(names, n)
	}
	if !r.Done() {
		return nil, fmt.Errorf("%w: trailing bytes", ErrBadMessage)
	}
	return names, nil
}

// EncodeDerefChunksResp encodes how many chunks a deref batch freed.
func EncodeDerefChunksResp(freed uint64) []byte {
	w := binenc.NewWriter(8)
	w.Uint64(freed)
	return w.Bytes()
}

// DecodeDerefChunksResp decodes EncodeDerefChunksResp output.
func DecodeDerefChunksResp(b []byte) (uint64, error) {
	r := binenc.NewReader(b)
	freed, err := r.Uint64()
	if err != nil {
		return 0, fmt.Errorf("%w: freed count: %v", ErrBadMessage, err)
	}
	if !r.Done() {
		return 0, fmt.Errorf("%w: trailing bytes", ErrBadMessage)
	}
	return freed, nil
}

// EncodeChallengeReq encodes an audit challenge: prove possession of
// the chunk by hashing it with a fresh nonce.
func EncodeChallengeReq(fp fingerprint.Fingerprint, nonce []byte) []byte {
	w := binenc.NewWriter(fingerprint.Size + len(nonce) + 4)
	w.Raw(fp[:])
	w.WriteBytes(nonce)
	return w.Bytes()
}

// DecodeChallengeReq decodes EncodeChallengeReq output.
func DecodeChallengeReq(b []byte) (fingerprint.Fingerprint, []byte, error) {
	var fp fingerprint.Fingerprint
	r := binenc.NewReader(b)
	raw, err := r.ReadRaw(fingerprint.Size)
	if err != nil {
		return fp, nil, fmt.Errorf("%w: challenge fp: %v", ErrBadMessage, err)
	}
	copy(fp[:], raw)
	nonce, err := r.ReadBytesCopy()
	if err != nil {
		return fp, nil, fmt.Errorf("%w: challenge nonce: %v", ErrBadMessage, err)
	}
	if !r.Done() {
		return fp, nil, fmt.Errorf("%w: trailing bytes", ErrBadMessage)
	}
	return fp, nonce, nil
}

// ChunkUpload is one chunk in a MsgPutChunksReq. A decoded upload's
// Data aliases the request frame it was decoded from: the server's
// handler reads it, dedup.Put copies new chunks into the open
// container, and nothing retains it past the handler.
type ChunkUpload struct {
	FP   fingerprint.Fingerprint
	Data []byte
}

// EncodePutChunksReq encodes a chunk upload batch.
func EncodePutChunksReq(chunks []ChunkUpload) []byte {
	size := 8
	for _, c := range chunks {
		size += fingerprint.Size + len(c.Data) + 4
	}
	w := binenc.NewWriter(size)
	w.Uvarint(uint64(len(chunks)))
	for _, c := range chunks {
		w.Raw(c.FP[:])
		w.WriteBytes(c.Data)
	}
	return w.Bytes()
}

// DecodePutChunksReq decodes a chunk upload batch without copying the
// chunks: each Data is a sub-slice of b (ReadFrame allocates every
// frame body afresh, so b is the request's own).
func DecodePutChunksReq(b []byte) ([]ChunkUpload, error) {
	r := binenc.NewReader(b)
	count, err := r.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: chunk count: %v", ErrBadMessage, err)
	}
	if count > 1<<20 {
		return nil, fmt.Errorf("%w: chunk batch too large", ErrBadMessage)
	}
	chunks := make([]ChunkUpload, 0, count)
	for i := uint64(0); i < count; i++ {
		raw, err := r.ReadRaw(fingerprint.Size)
		if err != nil {
			return nil, fmt.Errorf("%w: chunk %d fp: %v", ErrBadMessage, i, err)
		}
		fp, err := fingerprint.FromSlice(raw)
		if err != nil {
			return nil, err
		}
		data, err := r.ReadBytes()
		if err != nil {
			return nil, fmt.Errorf("%w: chunk %d data: %v", ErrBadMessage, i, err)
		}
		// Capped, so an append to one chunk cannot run into the next.
		chunks = append(chunks, ChunkUpload{FP: fp, Data: data[:len(data):len(data)]})
	}
	if !r.Done() {
		return nil, fmt.Errorf("%w: trailing bytes", ErrBadMessage)
	}
	return chunks, nil
}

// EncodePutChunksResp encodes per-chunk duplicate flags.
func EncodePutChunksResp(dups []bool) []byte {
	w := binenc.NewWriter(len(dups) + 8)
	w.Uvarint(uint64(len(dups)))
	for _, d := range dups {
		w.Bool(d)
	}
	return w.Bytes()
}

// DecodePutChunksResp decodes per-chunk duplicate flags.
func DecodePutChunksResp(b []byte) ([]bool, error) {
	r := binenc.NewReader(b)
	count, err := r.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: dup count: %v", ErrBadMessage, err)
	}
	if count > 1<<20 {
		return nil, fmt.Errorf("%w: dup list too large", ErrBadMessage)
	}
	dups := make([]bool, 0, count)
	for i := uint64(0); i < count; i++ {
		d, err := r.Bool()
		if err != nil {
			return nil, fmt.Errorf("%w: dup %d: %v", ErrBadMessage, i, err)
		}
		dups = append(dups, d)
	}
	if !r.Done() {
		return nil, fmt.Errorf("%w: trailing bytes", ErrBadMessage)
	}
	return dups, nil
}

// EncodeGetChunksReq encodes a fingerprint batch.
func EncodeGetChunksReq(fps []fingerprint.Fingerprint) []byte {
	w := binenc.NewWriter(8 + len(fps)*fingerprint.Size)
	w.Uvarint(uint64(len(fps)))
	for i := range fps {
		w.Raw(fps[i][:])
	}
	return w.Bytes()
}

// DecodeGetChunksReq decodes a fingerprint batch.
func DecodeGetChunksReq(b []byte) ([]fingerprint.Fingerprint, error) {
	r := binenc.NewReader(b)
	count, err := r.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: fp count: %v", ErrBadMessage, err)
	}
	if count > 1<<20 {
		return nil, fmt.Errorf("%w: fp batch too large", ErrBadMessage)
	}
	fps := make([]fingerprint.Fingerprint, 0, count)
	for i := uint64(0); i < count; i++ {
		raw, err := r.ReadRaw(fingerprint.Size)
		if err != nil {
			return nil, fmt.Errorf("%w: fp %d: %v", ErrBadMessage, i, err)
		}
		fp, err := fingerprint.FromSlice(raw)
		if err != nil {
			return nil, err
		}
		fps = append(fps, fp)
	}
	if !r.Done() {
		return nil, fmt.Errorf("%w: trailing bytes", ErrBadMessage)
	}
	return fps, nil
}

// EncodeBlobReq encodes a PutBlob or GetBlob request; data is nil for
// gets.
func EncodeBlobReq(ns, name string, data []byte) []byte {
	w := binenc.NewWriter(len(ns) + len(name) + len(data) + 16)
	w.String(ns)
	w.String(name)
	w.WriteBytes(data)
	return w.Bytes()
}

// DecodeBlobReq decodes EncodeBlobReq output.
func DecodeBlobReq(b []byte) (ns, name string, data []byte, err error) {
	r := binenc.NewReader(b)
	if ns, err = r.ReadString(); err != nil {
		return "", "", nil, fmt.Errorf("%w: blob ns: %v", ErrBadMessage, err)
	}
	if name, err = r.ReadString(); err != nil {
		return "", "", nil, fmt.Errorf("%w: blob name: %v", ErrBadMessage, err)
	}
	if data, err = r.ReadBytesCopy(); err != nil {
		return "", "", nil, fmt.Errorf("%w: blob data: %v", ErrBadMessage, err)
	}
	if !r.Done() {
		return "", "", nil, fmt.Errorf("%w: trailing bytes", ErrBadMessage)
	}
	return ns, name, data, nil
}

// Stats mirrors dedup.Stats over the wire.
type Stats struct {
	TotalPuts     uint64
	DedupedPuts   uint64
	LogicalBytes  uint64
	PhysicalBytes uint64
	StubBytes     uint64
}

// EncodeStats encodes server statistics.
func EncodeStats(s Stats) []byte {
	w := binenc.NewWriter(40)
	w.Uint64(s.TotalPuts)
	w.Uint64(s.DedupedPuts)
	w.Uint64(s.LogicalBytes)
	w.Uint64(s.PhysicalBytes)
	w.Uint64(s.StubBytes)
	return w.Bytes()
}

// DecodeStats decodes server statistics.
func DecodeStats(b []byte) (Stats, error) {
	r := binenc.NewReader(b)
	var s Stats
	var err error
	if s.TotalPuts, err = r.Uint64(); err != nil {
		return s, fmt.Errorf("%w: stats: %v", ErrBadMessage, err)
	}
	if s.DedupedPuts, err = r.Uint64(); err != nil {
		return s, fmt.Errorf("%w: stats: %v", ErrBadMessage, err)
	}
	if s.LogicalBytes, err = r.Uint64(); err != nil {
		return s, fmt.Errorf("%w: stats: %v", ErrBadMessage, err)
	}
	if s.PhysicalBytes, err = r.Uint64(); err != nil {
		return s, fmt.Errorf("%w: stats: %v", ErrBadMessage, err)
	}
	if s.StubBytes, err = r.Uint64(); err != nil {
		return s, fmt.Errorf("%w: stats: %v", ErrBadMessage, err)
	}
	if !r.Done() {
		return s, fmt.Errorf("%w: trailing bytes", ErrBadMessage)
	}
	return s, nil
}

// EncodeMetricsResp encodes a metrics snapshot. JSON rather than binenc:
// the snapshot's instrument set is open-ended (labeled families appear
// as subsystems see traffic), and the same bytes are served verbatim on
// the admin /metrics endpoint, so RPC and HTTP consumers can never
// disagree about the encoding.
func EncodeMetricsResp(s metrics.Snapshot) ([]byte, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("proto: encode metrics: %w", err)
	}
	return b, nil
}

// DecodeMetricsResp decodes EncodeMetricsResp output.
func DecodeMetricsResp(b []byte) (metrics.Snapshot, error) {
	var s metrics.Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%w: metrics payload: %v", ErrBadMessage, err)
	}
	return s, nil
}

// --- two-phase upload ---
//
// CheckFile asks a file's home shard whether the whole-file index
// already maps (hash, size, policy) to a stored recipe; RegisterFile
// records that mapping after a successful upload. The batched
// negative-lookup RPCs reuse existing wire shapes: MsgHasChunksReq and
// MsgRefChunksReq carry a fingerprint batch (MsgGetChunksReq shape),
// their responses a per-fingerprint flag list (MsgPutChunksResp shape).

// EncodeCheckFileReq encodes a whole-file pre-check key.
func EncodeCheckFileReq(key fileindex.Key) []byte {
	w := binenc.NewWriter(2*fileindex.HashSize + 8)
	w.Raw(key.Hash[:])
	w.Uint64(key.Size)
	w.Raw(key.Policy[:])
	return w.Bytes()
}

func decodeFileKey(r *binenc.Reader) (fileindex.Key, error) {
	var key fileindex.Key
	raw, err := r.ReadRaw(fileindex.HashSize)
	if err != nil {
		return key, fmt.Errorf("%w: file hash: %v", ErrBadMessage, err)
	}
	copy(key.Hash[:], raw)
	if key.Size, err = r.Uint64(); err != nil {
		return key, fmt.Errorf("%w: file size: %v", ErrBadMessage, err)
	}
	if raw, err = r.ReadRaw(fileindex.HashSize); err != nil {
		return key, fmt.Errorf("%w: policy fingerprint: %v", ErrBadMessage, err)
	}
	copy(key.Policy[:], raw)
	return key, nil
}

// DecodeCheckFileReq decodes EncodeCheckFileReq output.
func DecodeCheckFileReq(b []byte) (fileindex.Key, error) {
	r := binenc.NewReader(b)
	key, err := decodeFileKey(r)
	if err != nil {
		return key, err
	}
	if !r.Done() {
		return key, fmt.Errorf("%w: trailing bytes", ErrBadMessage)
	}
	return key, nil
}

// EncodeCheckFileResp encodes a pre-check answer: whether the index has
// an entry and, if so, the remote name of the owning recipe.
func EncodeCheckFileResp(name string, found bool) []byte {
	w := binenc.NewWriter(8 + len(name))
	w.Bool(found)
	w.String(name)
	return w.Bytes()
}

// DecodeCheckFileResp decodes EncodeCheckFileResp output.
func DecodeCheckFileResp(b []byte) (string, bool, error) {
	r := binenc.NewReader(b)
	found, err := r.Bool()
	if err != nil {
		return "", false, fmt.Errorf("%w: found flag: %v", ErrBadMessage, err)
	}
	name, err := r.ReadString()
	if err != nil {
		return "", false, fmt.Errorf("%w: recipe name: %v", ErrBadMessage, err)
	}
	if !r.Done() {
		return "", false, fmt.Errorf("%w: trailing bytes", ErrBadMessage)
	}
	if found && name == "" {
		return "", false, fmt.Errorf("%w: hit without a recipe name", ErrBadMessage)
	}
	return name, found, nil
}

// EncodeRegisterFileReq encodes a whole-file index registration: the
// key plus the remote name of the recipe that now stores those bytes.
func EncodeRegisterFileReq(key fileindex.Key, name string) []byte {
	w := binenc.NewWriter(2*fileindex.HashSize + 16 + len(name))
	w.Raw(key.Hash[:])
	w.Uint64(key.Size)
	w.Raw(key.Policy[:])
	w.String(name)
	return w.Bytes()
}

// DecodeRegisterFileReq decodes EncodeRegisterFileReq output.
func DecodeRegisterFileReq(b []byte) (fileindex.Key, string, error) {
	r := binenc.NewReader(b)
	key, err := decodeFileKey(r)
	if err != nil {
		return key, "", err
	}
	name, err := r.ReadString()
	if err != nil {
		return key, "", fmt.Errorf("%w: recipe name: %v", ErrBadMessage, err)
	}
	if name == "" {
		return key, "", fmt.Errorf("%w: empty recipe name", ErrBadMessage)
	}
	if !r.Done() {
		return key, "", fmt.Errorf("%w: trailing bytes", ErrBadMessage)
	}
	return key, name, nil
}
