package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

var ctx = context.Background()

// backends returns one of each Backend implementation for shared
// conformance tests: memory, disk (synced and unsynced), and the HTTP
// backend talking to an object handler over memory.
func backends(t *testing.T) map[string]Backend {
	t.Helper()
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	nosync, err := NewDisk(t.TempDir(), WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewObjectHandler(NewMemory()))
	t.Cleanup(srv.Close)
	httpBackend, err := NewHTTP(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Backend{
		"memory":      NewMemory(),
		"disk":        disk,
		"disk-nosync": nosync,
		"http":        httpBackend,
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			if err := b.Put(ctx, NSRecipes, "file-1", []byte("recipe data")); err != nil {
				t.Fatal(err)
			}
			got, err := b.Get(ctx, NSRecipes, "file-1")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, []byte("recipe data")) {
				t.Fatalf("Get = %q", got)
			}
		})
	}
}

func TestGetMissing(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			if _, err := b.Get(ctx, NSRecipes, "absent"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("error = %v, want ErrNotFound", err)
			}
			if _, err := b.GetRange(ctx, NSRecipes, "absent", 0, 1); !errors.Is(err, ErrNotFound) {
				t.Fatalf("GetRange error = %v, want ErrNotFound", err)
			}
		})
	}
}

func TestGetRange(t *testing.T) {
	blob := []byte("0123456789abcdef")
	cases := []struct {
		off, n int64
		want   string
	}{
		{0, 4, "0123"},
		{4, 4, "4567"},
		{0, -1, "0123456789abcdef"},
		{12, -1, "cdef"},
		{-4, -1, "cdef"},
		{-4, 4, "cdef"},
		{-16, 3, "012"},
		{-4, 2, "cd"},
		{16, -1, ""},
		{0, 0, ""},
		{16, 0, ""},
	}
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			if err := b.Put(ctx, NSContainers, "r", blob); err != nil {
				t.Fatal(err)
			}
			for _, c := range cases {
				got, err := b.GetRange(ctx, NSContainers, "r", c.off, c.n)
				if err != nil {
					t.Fatalf("GetRange(%d, %d): %v", c.off, c.n, err)
				}
				if string(got) != c.want {
					t.Fatalf("GetRange(%d, %d) = %q, want %q", c.off, c.n, got, c.want)
				}
			}
		})
	}
}

func TestGetRangeOutOfBounds(t *testing.T) {
	blob := []byte("0123456789")
	cases := []struct{ off, n int64 }{
		{0, 11},   // past the end
		{10, 1},   // starts at EOF, wants a byte
		{11, -1},  // starts past EOF
		{-11, -1}, // suffix longer than the blob
		{-4, 5},   // suffix window shorter than requested
		{8, 3},    // tail overrun
	}
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			if err := b.Put(ctx, NSContainers, "r", blob); err != nil {
				t.Fatal(err)
			}
			for _, c := range cases {
				if _, err := b.GetRange(ctx, NSContainers, "r", c.off, c.n); !errors.Is(err, ErrRange) {
					t.Fatalf("GetRange(%d, %d) = %v, want ErrRange", c.off, c.n, err)
				}
			}
		})
	}
}

// TestWriteAt pins WriteAt's contract on every backend: off 0 creates,
// a write extends or truncates past its end, the bytes below off are
// kept, and an off past the end (or on a missing blob) fails.
func TestWriteAt(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			steps := []struct {
				off  int64
				data string
				want string
			}{
				{0, "header", "header"},              // creates
				{6, "abc", "headerabc"},              // appends
				{9, "defgh", "headerabcdefgh"},       // appends again
				{9, "XY", "headerabcXY"},             // rewrites the tail, drops the rest
				{11, "", "headerabcXY"},              // empty write at the end: no change
				{3, "", "hea"},                       // empty write truncates
				{0, "fresh", "fresh"},                // off 0 replaces the whole blob
				{5, "0123456789", "fresh0123456789"}, // and it keeps growing
			}
			for i, st := range steps {
				if err := b.WriteAt(ctx, NSContainers, "open", st.off, []byte(st.data)); err != nil {
					t.Fatalf("step %d: WriteAt(%d, %q): %v", i, st.off, st.data, err)
				}
				got, err := b.Get(ctx, NSContainers, "open")
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != st.want {
					t.Fatalf("step %d: blob = %q, want %q", i, got, st.want)
				}
			}
			if err := b.WriteAt(ctx, NSContainers, "open", 16, []byte("x")); !errors.Is(err, ErrRange) {
				t.Fatalf("WriteAt past the end = %v, want ErrRange", err)
			}
			if err := b.WriteAt(ctx, NSContainers, "missing", 1, []byte("x")); !errors.Is(err, ErrNotFound) {
				t.Fatalf("WriteAt at 1 of a missing blob = %v, want ErrNotFound", err)
			}
			if ok, _ := b.Has(ctx, NSContainers, "missing"); ok {
				t.Fatal("a failed WriteAt created the blob")
			}
			names, err := b.List(ctx, NSContainers)
			if err != nil || len(names) != 1 || names[0] != "open" {
				t.Fatalf("List = %v, %v; want [open]", names, err)
			}
		})
	}
}

func TestHas(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			if ok, err := b.Has(ctx, NSStubs, "x"); err != nil || ok {
				t.Fatalf("Has(absent) = %v, %v", ok, err)
			}
			if err := b.Put(ctx, NSStubs, "x", []byte("s")); err != nil {
				t.Fatal(err)
			}
			if ok, err := b.Has(ctx, NSStubs, "x"); err != nil || !ok {
				t.Fatalf("Has(present) = %v, %v", ok, err)
			}
		})
	}
}

func TestOverwrite(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			b.Put(ctx, NSMeta, "k", []byte("v1"))
			b.Put(ctx, NSMeta, "k", []byte("v2"))
			got, err := b.Get(ctx, NSMeta, "k")
			if err != nil || !bytes.Equal(got, []byte("v2")) {
				t.Fatalf("Get after overwrite = %q, %v", got, err)
			}
		})
	}
}

func TestDelete(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			b.Put(ctx, NSMeta, "k", []byte("v"))
			if err := b.Delete(ctx, NSMeta, "k"); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Get(ctx, NSMeta, "k"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("error = %v, want ErrNotFound", err)
			}
			// Deleting a missing blob is not an error.
			if err := b.Delete(ctx, NSMeta, "k"); err != nil {
				t.Fatalf("Delete(missing) = %v", err)
			}
		})
	}
}

func TestList(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			names, err := b.List(ctx, NSContainers)
			if err != nil || len(names) != 0 {
				t.Fatalf("List(empty) = %v, %v", names, err)
			}
			for _, n := range []string{"c", "a", "b"} {
				b.Put(ctx, NSContainers, n, []byte(n))
			}
			names, err = b.List(ctx, NSContainers)
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"a", "b", "c"}
			if len(names) != 3 {
				t.Fatalf("List = %v", names)
			}
			for i := range want {
				if names[i] != want[i] {
					t.Fatalf("List = %v, want sorted %v", names, want)
				}
			}
		})
	}
}

func TestNamespaceIsolation(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			b.Put(ctx, NSRecipes, "k", []byte("recipe"))
			b.Put(ctx, NSStubs, "k", []byte("stub"))
			got, err := b.Get(ctx, NSRecipes, "k")
			if err != nil || !bytes.Equal(got, []byte("recipe")) {
				t.Fatal("namespace collision")
			}
		})
	}
}

func TestAwkwardNames(t *testing.T) {
	awkward := []string{
		"path/with/slashes",
		"spaces and %percent",
		"unicode-日本語",
		"..",
		"trailing.",
	}
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			for _, key := range awkward {
				if err := b.Put(ctx, NSRecipes, key, []byte(key)); err != nil {
					t.Fatalf("Put(%q): %v", key, err)
				}
				got, err := b.Get(ctx, NSRecipes, key)
				if err != nil || !bytes.Equal(got, []byte(key)) {
					t.Fatalf("Get(%q) = %q, %v", key, got, err)
				}
			}
			names, err := b.List(ctx, NSRecipes)
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != len(awkward) {
				t.Fatalf("List returned %d names, want %d: %v", len(names), len(awkward), names)
			}
		})
	}
}

func TestCanceledContext(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			if err := b.Put(canceled, NSMeta, "k", []byte("v")); err == nil {
				t.Fatal("Put with canceled context succeeded")
			}
			if _, err := b.Get(canceled, NSMeta, "k"); err == nil {
				t.Fatal("Get with canceled context succeeded")
			}
			if _, err := b.List(canceled, NSMeta); err == nil {
				t.Fatal("List with canceled context succeeded")
			}
		})
	}
}

func TestPutCopiesData(t *testing.T) {
	m := NewMemory()
	data := []byte("mutable")
	m.Put(ctx, NSMeta, "k", data)
	data[0] ^= 0xFF
	got, _ := m.Get(ctx, NSMeta, "k")
	if got[0] == data[0] {
		t.Fatal("memory backend aliased the caller's slice")
	}
}

func TestMemoryTotalBytes(t *testing.T) {
	m := NewMemory()
	m.Put(ctx, NSContainers, "a", make([]byte, 100))
	m.Put(ctx, NSContainers, "b", make([]byte, 50))
	m.Put(ctx, NSStubs, "c", make([]byte, 7))
	if got := m.TotalBytes(NSContainers); got != 150 {
		t.Fatalf("TotalBytes = %d, want 150", got)
	}
}

func TestDiskPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	d1, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Put(ctx, NSRecipes, "persist", []byte("durable")); err != nil {
		t.Fatal(err)
	}
	d1.Close()

	d2, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got, err := d2.Get(ctx, NSRecipes, "persist")
	if err != nil || !bytes.Equal(got, []byte("durable")) {
		t.Fatalf("Get after reopen = %q, %v", got, err)
	}
}

// TestDiskPutLeavesNoTemp verifies Put cleans up: after a successful
// Put only the published file remains — no .tmp-* litter for List to
// skip forever or for recovery to misread.
func TestDiskPutLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Put(ctx, NSContainers, "c1", []byte("data")); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "containers"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Fatalf("expected 1 entry, got %d", len(entries))
	}
}

func TestEscapeRoundTrip(t *testing.T) {
	names := []string{"plain", "a/b", "%", "%%25", "ü", ""}
	for _, n := range names {
		got, err := unescape(escape(n))
		if err != nil {
			t.Fatalf("unescape(escape(%q)): %v", n, err)
		}
		if got != n {
			t.Fatalf("round trip %q -> %q", n, got)
		}
	}
}

func TestUnescapeErrors(t *testing.T) {
	for _, bad := range []string{"%", "%2", "%zz"} {
		if _, err := unescape(bad); err == nil {
			t.Fatalf("unescape(%q) expected error", bad)
		}
	}
}

func TestParseRange(t *testing.T) {
	cases := []struct {
		header string
		off, n int64
		ok     bool
	}{
		{"bytes=0-3", 0, 4, true},
		{"bytes=5-5", 5, 1, true},
		{"bytes=7-", 7, -1, true},
		{"bytes=-32", -32, -1, true},
		{"", 0, 0, false},
		{"bytes=", 0, 0, false},
		{"bytes=3-1", 0, 0, false},
		{"bytes=-0", 0, 0, false},
		{"bytes=0-3,5-7", 0, 0, false},
		{"chars=0-3", 0, 0, false},
	}
	for _, c := range cases {
		off, n, ok := parseRange(c.header)
		if ok != c.ok || (ok && (off != c.off || n != c.n)) {
			t.Errorf("parseRange(%q) = (%d, %d, %v), want (%d, %d, %v)",
				c.header, off, n, ok, c.off, c.n, c.ok)
		}
	}
}

func TestHTTPBackendOverDisk(t *testing.T) {
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewObjectHandler(disk))
	defer srv.Close()
	h, err := NewHTTP(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	blob := bytes.Repeat([]byte("xyz"), 100)
	if err := h.Put(ctx, NSContainers, "c1", blob); err != nil {
		t.Fatal(err)
	}
	tail, err := h.GetRange(ctx, NSContainers, "c1", -6, -1)
	if err != nil || !bytes.Equal(tail, []byte("xyzxyz")) {
		t.Fatalf("suffix read = %q, %v", tail, err)
	}
	// The blob went through to disk, readable directly.
	got, err := disk.Get(ctx, NSContainers, "c1")
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("disk read-through = %d bytes, %v", len(got), err)
	}
}

// TestHTTPWriteAtPrefixCopy covers the copy of the last written blob
// that HTTP.WriteAt splices onto: a Put or Delete through the backend
// and a failed WriteAt must each discard it, so the next WriteAt reads
// the blob's real prefix back.
func TestHTTPWriteAtPrefixCopy(t *testing.T) {
	var failPuts atomic.Bool
	objects := NewObjectHandler(NewMemory())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut && failPuts.Load() {
			http.Error(w, "injected", http.StatusInternalServerError)
			return
		}
		objects.ServeHTTP(w, r)
	}))
	defer srv.Close()
	h, err := NewHTTP(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	writeAt := func(name string, off int64, data string) error {
		return h.WriteAt(ctx, NSContainers, name, off, []byte(data))
	}
	want := func(name, content string) {
		t.Helper()
		got, err := h.Get(ctx, NSContainers, name)
		if err != nil || string(got) != content {
			t.Fatalf("%s = %q, %v; want %q", name, got, err, content)
		}
	}

	if err := writeAt("a", 0, "0123456789"); err != nil {
		t.Fatal(err)
	}
	if err := h.Put(ctx, NSContainers, "a", []byte("ABCDEFGHIJ")); err != nil {
		t.Fatal(err)
	}
	if err := writeAt("a", 5, "x"); err != nil {
		t.Fatal(err)
	}
	want("a", "ABCDEx")

	if err := writeAt("b", 0, "hello"); err != nil {
		t.Fatal(err)
	}
	failPuts.Store(true)
	if err := writeAt("b", 2, "XY"); err == nil {
		t.Fatal("WriteAt succeeded through a failing Put")
	}
	failPuts.Store(false)
	if err := writeAt("b", 5, "!"); err != nil {
		t.Fatal(err)
	}
	want("b", "hello!")

	if err := h.Delete(ctx, NSContainers, "b"); err != nil {
		t.Fatal(err)
	}
	if err := writeAt("b", 2, "z"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("WriteAt into a deleted blob = %v, want ErrNotFound", err)
	}
}

func TestNewHTTPRejectsBadURLs(t *testing.T) {
	for _, bad := range []string{"ftp://host/x", "http://", "://nope", "relative/path"} {
		if _, err := NewHTTP(bad, nil); err == nil {
			t.Errorf("NewHTTP(%q) succeeded, want error", bad)
		}
	}
}

func TestConcurrentBackendAccess(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						key := fmt.Sprintf("%d-%d", g, i)
						if err := b.Put(ctx, NSMeta, key, []byte(key)); err != nil {
							t.Errorf("Put: %v", err)
							return
						}
						if _, err := b.Get(ctx, NSMeta, key); err != nil {
							t.Errorf("Get: %v", err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestDiskConcurrentSameBlob hammers one blob name with overwrites while
// readers and listers run. Striped locking serializes same-name writers;
// rename publication means a reader sees one complete value, never a
// torn mix, and List never errors mid-write.
func TestDiskConcurrentSameBlob(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	vals := [][]byte{
		bytes.Repeat([]byte{0xAA}, 4096),
		bytes.Repeat([]byte{0xBB}, 4096),
	}
	if err := d.Put(ctx, NSMeta, "hot", vals[0]); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := d.Put(ctx, NSMeta, "hot", vals[(g+i)%2]); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, err := d.Get(ctx, NSMeta, "hot")
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if !bytes.Equal(got, vals[0]) && !bytes.Equal(got, vals[1]) {
					t.Errorf("Get returned torn value (len %d)", len(got))
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			names, err := d.List(ctx, NSMeta)
			if err != nil {
				t.Errorf("List: %v", err)
				return
			}
			for _, n := range names {
				if n != "hot" {
					t.Errorf("List saw unexpected name %q", n)
					return
				}
			}
		}
	}()
	wg.Wait()
}

// TestDiskConcurrentDisjointBlobs runs put/get/delete cycles on disjoint
// names from many goroutines; stripes must never cross-corrupt.
func TestDiskConcurrentDisjointBlobs(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				name := fmt.Sprintf("blob-%d-%d", g, i)
				want := []byte(name)
				if err := d.Put(ctx, NSContainers, name, want); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				got, err := d.Get(ctx, NSContainers, name)
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("Get %s = %q, %v", name, got, err)
					return
				}
				if i%3 == 0 {
					if err := d.Delete(ctx, NSContainers, name); err != nil {
						t.Errorf("Delete: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestHTTPWriteAtCopyPerNamespace: a server appends to one blob in each
// of several namespaces at once (the open container and each log's
// active segment). Interleaved appends keep one copy per namespace, so
// none of them reads a prefix back.
func TestHTTPWriteAtCopyPerNamespace(t *testing.T) {
	var gets atomic.Int64
	objects := NewObjectHandler(NewMemory())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			gets.Add(1)
		}
		objects.ServeHTTP(w, r)
	}))
	defer srv.Close()
	h, err := NewHTTP(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	blobs := []struct{ ns, name string }{{NSContainers, "open"}, {NSWAL, "w1"}, {NSFileWAL, "f1"}, {NSBlobWAL, "b1"}}
	want := make([]string, len(blobs))
	for round := 0; round < 3; round++ {
		for i, b := range blobs {
			data := fmt.Sprintf("<%d>", round)
			if err := h.WriteAt(ctx, b.ns, b.name, int64(len(want[i])), []byte(data)); err != nil {
				t.Fatal(err)
			}
			want[i] += data
		}
	}
	if n := gets.Load(); n != 0 {
		t.Fatalf("interleaved appends read %d prefixes back", n)
	}
	for i, b := range blobs {
		if got, err := h.Get(ctx, b.ns, b.name); err != nil || string(got) != want[i] {
			t.Fatalf("%s/%s = %q, %v; want %q", b.ns, b.name, got, err, want[i])
		}
	}
}

// TestCheckNameMatchesDisk: the longest name CheckName accepts is one
// Disk can store, and CheckName refuses the names Disk cannot.
func TestCheckNameMatchesDisk(t *testing.T) {
	d, err := NewDisk(t.TempDir(), WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, name := range []string{strings.Repeat("a", maxFileName), strings.Repeat("/", maxFileName/3)} {
		if err := CheckName(name); err != nil {
			t.Fatalf("CheckName refused a %d-byte name: %v", len(name), err)
		}
		if err := d.Put(ctx, NSStubs, name, []byte("x")); err != nil {
			t.Fatalf("Disk refused a name CheckName accepts: %v", err)
		}
	}
	for _, name := range []string{"", strings.Repeat("a", maxFileName+1), strings.Repeat("/", maxFileName/3+1)} {
		if CheckName(name) == nil {
			t.Errorf("CheckName accepted a %d-byte name", len(name))
		}
	}
}
