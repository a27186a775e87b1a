// Package store provides the flat blob storage backends behind REED's
// data store and key store.
//
// The paper separates the storage backend into a data store (file
// recipes, trimmed packages in containers, stub files) and a key store
// (encrypted key states). Both are namespace/key → blob maps; this
// package supplies an in-memory backend for tests and benchmarks, a
// disk backend mirroring the prototype's local-disk deployment, and an
// HTTP object backend for S3-style remote stores.
//
// # Backend contract
//
// Every method is ctx-first and every implementation must be safe for
// concurrent use. Two guarantees matter to callers:
//
//   - Put is atomic: a reader (Get, GetRange, List) never observes a
//     torn or partially written blob — it sees either the old blob, the
//     new blob, or ErrNotFound. The disk backend implements this with
//     write-to-temp + fsync + rename; the dedup layer's checkpoints
//     depend on it.
//   - GetRange reads a byte range without transferring the whole blob,
//     so packfile index reads skip whole-container copies. A negative
//     offset addresses from the end (off=-32 reads the final 32 bytes,
//     like an HTTP suffix range); a negative length means "to the end".
//     Ranges extending past either edge of the blob fail with ErrRange
//     rather than being silently clamped.
//
// WriteAt is the one exception to Put's atomicity: it rewrites a blob's
// tail in place, for single-writer blobs that nothing reads by name
// until the writer is done: the dedup store's open container, which it
// extends at every commit and seals in place, and each write-ahead
// log's active segment, which every commit appends one batch to. Its
// cost differs by backend:
//
//   - Memory splices the bytes into the stored blob;
//   - Disk issues pwrite, ftruncate and fdatasync on the file (plus a
//     directory fsync when the call creates it), so a commit costs the
//     bytes it adds, not the blob;
//   - HTTP has no partial-write verb, so it splices onto the blob's
//     prefix and Puts it back: correct, but O(blob) per call. The
//     prefix comes from its copy of the blob it last appended to in
//     the same namespace, so only the Put crosses the wire. A log
//     segment rolls by 1 MiB at the latest, and by 64 KiB under small
//     commits, which bounds what one commit rewrites here besides its
//     own batch.
package store

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Well-known namespaces.
const (
	NSContainers = "containers"
	NSRecipes    = "recipes"
	NSStubs      = "stubs"
	NSKeyStates  = "keystates"
	NSMeta       = "meta"
	// NSWAL holds the dedup store's write-ahead log segments. Like
	// NSContainers and NSMeta it is server-internal: clients cannot
	// address it through the blob plane.
	NSWAL = "wal"
	// NSFileWAL holds the whole-file index's write-ahead log segments
	// (internal/fileindex). A separate namespace from NSWAL because a
	// wal.Log treats any blob it does not own in its namespace as
	// corruption. Server-internal like NSWAL.
	NSFileWAL = "filewal"
	// NSBlobWAL holds the blob plane's write-ahead log segments: the
	// journaled puts and deletes of recipes, stub files and key states
	// that the next checkpoint has not yet written to their own
	// namespaces. Server-internal like NSWAL.
	NSBlobWAL = "blobwal"
)

// ErrNotFound is returned when a blob does not exist.
var ErrNotFound = errors.New("store: not found")

// ErrRange is returned by GetRange when the requested byte range does
// not lie within the blob.
var ErrRange = errors.New("store: range out of bounds")

// Backend is a flat blob store keyed by (namespace, name).
// Implementations must be safe for concurrent use.
type Backend interface {
	// Put stores data under (ns, name), overwriting any existing blob.
	// The write is atomic: concurrent readers see the old blob or the
	// new one, never a mixture, and a crash mid-Put never leaves a torn
	// blob behind.
	Put(ctx context.Context, ns, name string, data []byte) error
	// Get returns the blob at (ns, name) or ErrNotFound.
	Get(ctx context.Context, ns, name string) ([]byte, error)
	// GetRange returns n bytes of the blob starting at off. off < 0
	// addresses from the end of the blob (a suffix read); n < 0 means
	// "through the end". A range that does not fit the blob returns
	// ErrRange; a missing blob returns ErrNotFound.
	GetRange(ctx context.Context, ns, name string, off, n int64) ([]byte, error)
	// Has reports whether (ns, name) exists.
	Has(ctx context.Context, ns, name string) (bool, error)
	// WriteAt writes data at byte off of (ns, name) and drops every
	// byte past off+len(data); it returns once the bytes are durable.
	// off == 0 creates the blob if it is missing; otherwise a missing
	// blob is ErrNotFound and an off beyond the blob's length is
	// ErrRange. Unlike Put it is not atomic against readers: it is for
	// single-writer blobs that nothing reads by name until the writer
	// is done.
	WriteAt(ctx context.Context, ns, name string, off int64, data []byte) error
	// Delete removes (ns, name), durably on return; deleting a missing
	// blob is not an error.
	Delete(ctx context.Context, ns, name string) error
	// List returns the names in ns, sorted.
	List(ctx context.Context, ns string) ([]string, error)
	// Close flushes any buffered state and releases resources.
	Close() error
}

// resolveRange maps a (off, n) request onto a blob of the given size,
// returning the [start, end) window. It implements the GetRange
// contract shared by every backend: off < 0 is a suffix read, n < 0
// means "to the end", and anything not fully inside the blob is
// ErrRange.
func resolveRange(off, n, size int64) (start, end int64, err error) {
	start = off
	if off < 0 {
		start = size + off
	}
	if start < 0 || start > size {
		return 0, 0, fmt.Errorf("%w: offset %d of %d bytes", ErrRange, off, size)
	}
	if n < 0 {
		return start, size, nil
	}
	end = start + n
	if end > size {
		return 0, 0, fmt.Errorf("%w: [%d, %d) of %d bytes", ErrRange, start, end, size)
	}
	return start, end, nil
}

// Memory is an in-memory Backend.
type Memory struct {
	mu   sync.RWMutex
	data map[string]map[string][]byte
}

var _ Backend = (*Memory)(nil)

// NewMemory returns an empty in-memory backend.
func NewMemory() *Memory {
	return &Memory{data: make(map[string]map[string][]byte)}
}

// Put implements Backend.
func (m *Memory) Put(ctx context.Context, ns, name string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	nsMap, ok := m.data[ns]
	if !ok {
		nsMap = make(map[string][]byte)
		m.data[ns] = nsMap
	}
	nsMap[name] = append([]byte(nil), data...)
	return nil
}

// Get implements Backend.
func (m *Memory) Get(ctx context.Context, ns, name string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	blob, ok := m.data[ns][name]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, ns, name)
	}
	return append([]byte(nil), blob...), nil
}

// GetRange implements Backend.
func (m *Memory) GetRange(ctx context.Context, ns, name string, off, n int64) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	blob, ok := m.data[ns][name]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, ns, name)
	}
	start, end, err := resolveRange(off, n, int64(len(blob)))
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", ns, name, err)
	}
	return append([]byte(nil), blob[start:end]...), nil
}

// WriteAt implements Backend by splicing data into the stored blob.
func (m *Memory) WriteAt(ctx context.Context, ns, name string, off int64, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	nsMap, ok := m.data[ns]
	if !ok {
		nsMap = make(map[string][]byte)
		m.data[ns] = nsMap
	}
	blob, ok := nsMap[name]
	if err := checkWriteAt(ns, name, off, int64(len(blob)), ok); err != nil {
		return err
	}
	// In place: Put stores a copy and Get and GetRange return copies,
	// so no caller shares the stored array.
	nsMap[name] = append(blob[:off], data...)
	return nil
}

// checkWriteAt implements WriteAt's bounds contract for a blob of size
// bytes (exists false: missing).
func checkWriteAt(ns, name string, off, size int64, exists bool) error {
	switch {
	case !exists && off != 0:
		return fmt.Errorf("%w: %s/%s", ErrNotFound, ns, name)
	case off < 0 || off > size:
		return fmt.Errorf("%s/%s: %w: write at %d of %d bytes", ns, name, ErrRange, off, size)
	}
	return nil
}

// Has implements Backend.
func (m *Memory) Has(ctx context.Context, ns, name string) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.data[ns][name]
	return ok, nil
}

// Delete implements Backend.
func (m *Memory) Delete(ctx context.Context, ns, name string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.data[ns], name)
	return nil
}

// List implements Backend.
func (m *Memory) List(ctx context.Context, ns string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	names := make([]string, 0, len(m.data[ns]))
	for name := range m.data[ns] {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Close implements Backend.
func (m *Memory) Close() error { return nil }

// TotalBytes returns the summed blob sizes (for storage accounting).
func (m *Memory) TotalBytes(ns string) int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var total int64
	for _, blob := range m.data[ns] {
		total += int64(len(blob))
	}
	return total
}
