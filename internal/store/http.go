package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
)

// HTTP is a Backend over an S3-style HTTP object server: one URL per
// blob at {base}/{ns}/{name}, with PUT/GET/HEAD/DELETE for single
// blobs, GET {base}/{ns}/ for a JSON name listing, and HTTP Range
// requests backing GetRange. NewObjectHandler is the matching server
// side; any store that honors single-part Range requests strictly
// (416, no silent clamping) works.
type HTTP struct {
	base   string
	client *http.Client

	// tails holds, per namespace, the blob WriteAt wrote there most
	// recently, so the next WriteAt to it splices onto this copy
	// instead of reading the prefix back. WriteAt's blobs have one
	// writer each (see Backend), and a namespace holds at most one blob
	// being appended to at a time — the dedup store's open container,
	// each write-ahead log's active segment — so one copy per namespace
	// serves every append.
	tailsMu sync.Mutex
	tails   map[string]*tail
}

// tail is one namespace's entry in HTTP.tails. Its mutex is held
// across the Put of a WriteAt, so appends to one namespace serialize
// and appends to different ones do not.
type tail struct {
	mu   sync.Mutex
	name string
	data []byte
}

var _ Backend = (*HTTP)(nil)

// NewHTTP returns a backend talking to the object server at baseURL
// (scheme://host[/prefix]). A nil client uses http.DefaultClient.
func NewHTTP(baseURL string, client *http.Client) (*HTTP, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("store: parse base URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("store: base URL %q: scheme must be http or https", baseURL)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("store: base URL %q: missing host", baseURL)
	}
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTP{base: strings.TrimRight(u.String(), "/"), client: client}, nil
}

func (h *HTTP) blobURL(ns, name string) string {
	return h.base + "/" + url.PathEscape(ns) + "/" + url.PathEscape(name)
}

// do runs one request and returns the response; non-2xx statuses other
// than those the caller whitelists become errors carrying the body.
func (h *HTTP) do(req *http.Request, okStatus ...int) (*http.Response, error) {
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("store: %s %s: %w", req.Method, req.URL.Path, err)
	}
	for _, s := range okStatus {
		if resp.StatusCode == s {
			return resp, nil
		}
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	resp.Body.Close()
	return nil, fmt.Errorf("store: %s %s: %s: %s",
		req.Method, req.URL.Path, resp.Status, strings.TrimSpace(string(body)))
}

// Put implements Backend. Atomicity is delegated to the object server:
// a conforming server (NewObjectHandler over Memory or Disk) publishes
// the blob atomically.
func (h *HTTP) Put(ctx context.Context, ns, name string, data []byte) error {
	h.forget(ns, name)
	return h.put(ctx, ns, name, data)
}

// tail returns ns's entry in h.tails, creating it on first use.
func (h *HTTP) tail(ns string) *tail {
	h.tailsMu.Lock()
	defer h.tailsMu.Unlock()
	t := h.tails[ns]
	if t == nil {
		if h.tails == nil {
			h.tails = make(map[string]*tail)
		}
		t = new(tail)
		h.tails[ns] = t
	}
	return t
}

// forget drops WriteAt's copy of a blob another call replaced.
func (h *HTTP) forget(ns, name string) {
	t := h.tail(ns)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.name == name {
		t.data = nil
	}
}

func (h *HTTP) put(ctx context.Context, ns, name string, data []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, h.blobURL(ns, name), bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("store: build request: %w", err)
	}
	req.ContentLength = int64(len(data))
	resp, err := h.do(req, http.StatusOK, http.StatusCreated, http.StatusNoContent)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// Get implements Backend.
func (h *HTTP) Get(ctx context.Context, ns, name string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.blobURL(ns, name), nil)
	if err != nil {
		return nil, fmt.Errorf("store: build request: %w", err)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("store: GET %s: %w", req.URL.Path, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, fmt.Errorf("store: read body: %w", err)
		}
		return data, nil
	case http.StatusNotFound:
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, ns, name)
	default:
		return nil, fmt.Errorf("store: GET %s: %s", req.URL.Path, resp.Status)
	}
}

// GetRange implements Backend via an HTTP Range request. The (off, n)
// window maps onto a single range spec; a server that clamps instead
// of rejecting an over-long range is caught by the length check, so
// the strict ErrRange contract holds either way.
func (h *HTTP) GetRange(ctx context.Context, ns, name string, off, n int64) ([]byte, error) {
	if n == 0 {
		// A zero-length window has no HTTP range spelling; validate the
		// bounds against the whole blob instead.
		blob, err := h.Get(ctx, ns, name)
		if err != nil {
			return nil, err
		}
		if _, _, err := resolveRange(off, n, int64(len(blob))); err != nil {
			return nil, fmt.Errorf("%s/%s: %w", ns, name, err)
		}
		return []byte{}, nil
	}

	var spec string
	var want int64 // exact expected length, -1 if open-ended
	switch {
	case off < 0:
		if n > -off {
			return nil, fmt.Errorf("%s/%s: %w: suffix %d shorter than length %d", ns, name, ErrRange, -off, n)
		}
		spec = fmt.Sprintf("bytes=%d", off) // bytes=-N suffix form
		want = -off
	case n < 0:
		spec = fmt.Sprintf("bytes=%d-", off)
		want = -1
	default:
		spec = fmt.Sprintf("bytes=%d-%d", off, off+n-1)
		want = n
	}

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.blobURL(ns, name), nil)
	if err != nil {
		return nil, fmt.Errorf("store: build request: %w", err)
	}
	req.Header.Set("Range", spec)
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("store: GET %s: %w", req.URL.Path, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusPartialContent:
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, fmt.Errorf("store: read body: %w", err)
		}
		if want >= 0 && int64(len(data)) != want {
			return nil, fmt.Errorf("%s/%s: %w: server returned %d of %d bytes",
				ns, name, ErrRange, len(data), want)
		}
		if off < 0 && n >= 0 {
			data = data[:n] // first n bytes of the suffix window
		}
		return data, nil
	case http.StatusOK:
		// Server ignored the Range header; apply the window locally.
		blob, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, fmt.Errorf("store: read body: %w", err)
		}
		start, end, err := resolveRange(off, n, int64(len(blob)))
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", ns, name, err)
		}
		return blob[start:end], nil
	case http.StatusNotFound:
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, ns, name)
	case http.StatusRequestedRangeNotSatisfiable:
		return nil, fmt.Errorf("%s/%s: %w: %s", ns, name, ErrRange, spec)
	default:
		return nil, fmt.Errorf("store: GET %s (%s): %s", req.URL.Path, spec, resp.Status)
	}
}

// WriteAt implements Backend. The object protocol has no partial
// write, so WriteAt splices data onto the blob's first off bytes and
// Puts the result back: correct, but O(blob) per call, where Disk pays
// only for the bytes written. The prefix comes from the copy of the
// blob the previous WriteAt in ns wrote, and is read back with GetRange
// only when that copy is of another blob or too short.
func (h *HTTP) WriteAt(ctx context.Context, ns, name string, off int64, data []byte) error {
	if off < 0 {
		return checkWriteAt(ns, name, off, 0, true)
	}
	t := h.tail(ns)
	t.mu.Lock()
	defer t.mu.Unlock()
	var prefix []byte
	switch {
	case off == 0:
		prefix = t.data[:0]
	case name == t.name && off <= int64(len(t.data)):
		prefix = t.data[:off]
	default:
		var err error
		if prefix, err = h.GetRange(ctx, ns, name, 0, off); err != nil {
			return err
		}
	}
	blob := append(prefix, data...)
	t.data = nil // the splice above may have overwritten it
	if err := h.put(ctx, ns, name, blob); err != nil {
		return err
	}
	t.name, t.data = name, blob
	return nil
}

// Has implements Backend.
func (h *HTTP) Has(ctx context.Context, ns, name string) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodHead, h.blobURL(ns, name), nil)
	if err != nil {
		return false, fmt.Errorf("store: build request: %w", err)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return false, fmt.Errorf("store: HEAD %s: %w", req.URL.Path, err)
	}
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusNoContent:
		return true, nil
	case http.StatusNotFound:
		return false, nil
	default:
		return false, fmt.Errorf("store: HEAD %s: %s", req.URL.Path, resp.Status)
	}
}

// Delete implements Backend; deleting a missing blob is not an error.
func (h *HTTP) Delete(ctx context.Context, ns, name string) error {
	h.forget(ns, name)
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, h.blobURL(ns, name), nil)
	if err != nil {
		return fmt.Errorf("store: build request: %w", err)
	}
	resp, err := h.do(req, http.StatusOK, http.StatusNoContent, http.StatusNotFound)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// List implements Backend.
func (h *HTTP) List(ctx context.Context, ns string) ([]string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+"/"+url.PathEscape(ns)+"/", nil)
	if err != nil {
		return nil, fmt.Errorf("store: build request: %w", err)
	}
	resp, err := h.do(req, http.StatusOK, http.StatusNotFound)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, nil
	}
	var names []string
	if err := json.NewDecoder(resp.Body).Decode(&names); err != nil {
		return nil, fmt.Errorf("store: decode listing: %w", err)
	}
	return names, nil
}

// Close implements Backend.
func (h *HTTP) Close() error {
	h.client.CloseIdleConnections()
	return nil
}

// objectHandler serves a Backend over the HTTP object protocol.
type objectHandler struct {
	backend Backend
}

// NewObjectHandler returns an http.Handler exposing backend with the
// URL scheme the HTTP backend speaks: PUT/GET/HEAD/DELETE on
// /{ns}/{name}, GET /{ns}/ for a JSON listing, and strict single-part
// Range support on GET (a range not fully inside the blob is 416,
// never clamped). cmd/reed-objectserver wraps this into a standalone
// object server.
func NewObjectHandler(backend Backend) http.Handler {
	return &objectHandler{backend: backend}
}

// parseRange parses a single-part Range header into GetRange's (off, n)
// semantics. ok is false when the header is absent or unparseable —
// the caller then serves the whole blob, per RFC 9110's
// ignore-invalid-ranges advice.
func parseRange(header string) (off, n int64, ok bool) {
	spec, found := strings.CutPrefix(header, "bytes=")
	if !found || strings.Contains(spec, ",") {
		return 0, 0, false
	}
	first, last, found := strings.Cut(spec, "-")
	if !found {
		return 0, 0, false
	}
	if first == "" { // bytes=-N: suffix
		s, err := strconv.ParseInt(last, 10, 64)
		if err != nil || s <= 0 {
			return 0, 0, false
		}
		return -s, -1, true
	}
	a, err := strconv.ParseInt(first, 10, 64)
	if err != nil || a < 0 {
		return 0, 0, false
	}
	if last == "" { // bytes=N-: open-ended
		return a, -1, true
	}
	b, err := strconv.ParseInt(last, 10, 64)
	if err != nil || b < a {
		return 0, 0, false
	}
	return a, b - a + 1, true
}

func (o *objectHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := strings.TrimPrefix(r.URL.EscapedPath(), "/")
	nsEsc, nameEsc, _ := strings.Cut(path, "/")
	ns, err := url.PathUnescape(nsEsc)
	if err != nil || ns == "" {
		http.Error(w, "bad namespace", http.StatusBadRequest)
		return
	}
	name, err := url.PathUnescape(nameEsc)
	if err != nil {
		http.Error(w, "bad name", http.StatusBadRequest)
		return
	}

	if name == "" {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		o.list(w, r, ns)
		return
	}

	switch r.Method {
	case http.MethodPut:
		data, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if err := o.backend.Put(r.Context(), ns, name, data); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusCreated)
	case http.MethodGet:
		o.get(w, r, ns, name)
	case http.MethodHead:
		ok, err := o.backend.Has(r.Context(), ns, name)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusOK)
	case http.MethodDelete:
		if err := o.backend.Delete(r.Context(), ns, name); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (o *objectHandler) list(w http.ResponseWriter, r *http.Request, ns string) {
	names, err := o.backend.List(r.Context(), ns)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if names == nil {
		names = []string{}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(names); err != nil {
		return // client went away; nothing to report
	}
}

func (o *objectHandler) get(w http.ResponseWriter, r *http.Request, ns, name string) {
	if off, n, ok := parseRange(r.Header.Get("Range")); ok {
		data, err := o.backend.GetRange(r.Context(), ns, name, off, n)
		switch {
		case err == nil:
			if off >= 0 {
				w.Header().Set("Content-Range",
					fmt.Sprintf("bytes %d-%d/*", off, off+int64(len(data))-1))
			}
			w.WriteHeader(http.StatusPartialContent)
			_, _ = w.Write(data)
		case errors.Is(err, ErrRange):
			http.Error(w, err.Error(), http.StatusRequestedRangeNotSatisfiable)
		case errors.Is(err, ErrNotFound):
			http.Error(w, err.Error(), http.StatusNotFound)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	data, err := o.backend.Get(r.Context(), ns, name)
	switch {
	case err == nil:
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		_, _ = w.Write(data)
	case errors.Is(err, ErrNotFound):
		http.Error(w, err.Error(), http.StatusNotFound)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
