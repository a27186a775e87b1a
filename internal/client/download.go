package client

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/recipe"
)

// DownloadResult summarizes a download.
type DownloadResult struct {
	// Chunks is the number of chunks the file reassembled from.
	Chunks int
	// LogicalBytes is the plaintext size in bytes written out.
	LogicalBytes int64
	// KeyVersion is the key-state version the stub file was sealed
	// under.
	KeyVersion uint64
	// Retry reports the fault recovery this download needed. Every RPC
	// a download issues is a read, so recovery is entirely transparent
	// re-issue at the transport layer.
	Retry RetryStats
	// Elapsed is the wall-clock duration of the whole operation.
	Elapsed time.Duration
}

// fetchedWindow is one prefetched window of ciphertext chunks.
type fetchedWindow struct {
	lo, hi  int // recipe index range [lo, hi)
	trimmed [][]byte
}

// DownloadTo streams the file stored under path into w, verifying chunk
// integrity and writing strictly in recipe order. Windows of up to
// Config.SegmentBytes of chunks are prefetched in parallel from the
// data servers while the previous window decrypts on the worker pool,
// so peak memory is O(segment), not O(file). Cancelling ctx aborts the
// prefetch and decrypt promptly; w may have received a prefix of the
// file.
func (c *Client) DownloadTo(ctx context.Context, path string, w io.Writer) (*DownloadResult, error) {
	return c.downloadStream(ctx, c.remoteName(path), func(*recipe.Recipe) (io.Writer, error) {
		return w, nil
	})
}

// Download retrieves and reassembles the file stored under path. It is
// a thin wrapper over the streaming path that collects into a buffer;
// prefer DownloadTo for large files. The recipe's sizes are checked only
// as each chunk is decrypted, so the buffer is pre-sized to at most one
// segment and grows with verified chunks.
func (c *Client) Download(ctx context.Context, path string) ([]byte, error) {
	var buf bytes.Buffer
	_, err := c.downloadStream(ctx, c.remoteName(path), func(rec *recipe.Recipe) (io.Writer, error) {
		buf.Grow(int(min(rec.Size, uint64(c.cfg.SegmentBytes))))
		return &buf, nil
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// downloadStream fetches the file's metadata, then pipelines windowed
// chunk prefetch against decryption, writing plaintext in recipe order
// to the writer open returns. open runs after the recipe is known so
// callers can size their sink.
func (c *Client) downloadStream(ctx context.Context, name string, open func(*recipe.Recipe) (io.Writer, error)) (*DownloadResult, error) {
	start := time.Now()
	retryBefore := c.retrySnapshot()
	state, derivPub, err := c.fetchKeyState(ctx, name)
	if err != nil {
		return nil, err
	}
	rec, err := c.getRecipe(ctx, name)
	if err != nil {
		return nil, err
	}
	if rec.Scheme != uint8(c.cfg.Scheme) {
		return nil, fmt.Errorf("client: file uses scheme %d, client configured for %v", rec.Scheme, c.cfg.Scheme)
	}
	stubs, err := c.openStubs(ctx, name, rec, state, derivPub)
	if err != nil {
		return nil, err
	}

	w, err := open(rec)
	if err != nil {
		return nil, err
	}

	windows := splitWindows(rec, int64(c.cfg.SegmentBytes))
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Producer: prefetch window i+1 while the consumer below decrypts
	// and writes window i.
	fetched := make(chan fetchedWindow, 1)
	var (
		wg          sync.WaitGroup
		producerErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(fetched)
		for _, win := range windows {
			trimmed, err := c.fetchWindow(pctx, rec, win[0], win[1])
			if err != nil {
				producerErr = err
				cancel()
				return
			}
			select {
			case fetched <- fetchedWindow{lo: win[0], hi: win[1], trimmed: trimmed}:
			case <-pctx.Done():
				return
			}
		}
	}()

	var (
		total      int64
		consumeErr error
	)
	for fw := range fetched {
		n := fw.hi - fw.lo
		plain := make([][]byte, n)
		err := c.parallelEach(pctx, n, func(i int) error {
			idx := fw.lo + i
			// Each trimmed package is this window's own slice of a reply
			// frame, distinct from every other even when the recipe repeats
			// a chunk, so the chunk is reverted over it in place.
			chunk, err := c.codec.Open(fw.trimmed[i][:0], core.Package{Trimmed: fw.trimmed[i], Stub: stubs[idx]})
			if err != nil {
				return fmt.Errorf("chunk %d: %w", idx, err)
			}
			if uint32(len(chunk)) != rec.Chunks[idx].Size {
				return fmt.Errorf("chunk %d: size %d, recipe says %d", idx, len(chunk), rec.Chunks[idx].Size)
			}
			plain[i] = chunk
			return nil
		})
		if err != nil {
			consumeErr = err
			cancel()
			break
		}
		for _, p := range plain {
			// Writes are the only stage the context cannot interrupt
			// (w is caller-owned); re-check between chunks so a
			// cancelled download stops at chunk granularity.
			if err := pctx.Err(); err != nil {
				consumeErr = err
				break
			}
			if _, err := w.Write(p); err != nil {
				consumeErr = fmt.Errorf("client: write output: %w", err)
				cancel()
				break
			}
			total += int64(len(p))
		}
		if consumeErr != nil {
			break
		}
	}
	cancel()
	wg.Wait()
	// Drain anything the producer managed to enqueue after we broke out.
	for range fetched {
	}
	if consumeErr != nil {
		return nil, consumeErr
	}
	if producerErr != nil {
		return nil, producerErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if uint64(total) != rec.Size {
		return nil, fmt.Errorf("client: reassembled %d bytes, recipe says %d", total, rec.Size)
	}
	return &DownloadResult{
		Chunks:       len(rec.Chunks),
		LogicalBytes: total,
		KeyVersion:   rec.KeyVersion,
		Retry:        c.retryDelta(retryBefore),
		Elapsed:      time.Since(start),
	}, nil
}

// splitWindows cuts the recipe's chunk list into [lo, hi) index ranges
// of at most budget plaintext bytes each (at least one chunk per
// window).
func splitWindows(rec *recipe.Recipe, budget int64) [][2]int {
	var (
		out   [][2]int
		lo    int
		bytes int64
	)
	for i, ref := range rec.Chunks {
		if i > lo && bytes+int64(ref.Size) > budget {
			out = append(out, [2]int{lo, i})
			lo, bytes = i, 0
		}
		bytes += int64(ref.Size)
	}
	if lo < len(rec.Chunks) {
		out = append(out, [2]int{lo, len(rec.Chunks)})
	}
	return out
}

// fetchWindow fetches trimmed packages [lo, hi) of the recipe through
// the cluster router, which stripes the fingerprints across their
// owning shards in parallel and reassembles the results in recipe
// order.
func (c *Client) fetchWindow(ctx context.Context, rec *recipe.Recipe, lo, hi int) ([][]byte, error) {
	fps := make([]fingerprint.Fingerprint, hi-lo)
	for i := lo; i < hi; i++ {
		fps[i-lo] = rec.Chunks[i].Fingerprint
	}
	out, err := c.router.GetChunks(ctx, fps)
	if err != nil {
		return nil, fmt.Errorf("client: download chunks: %w", err)
	}
	return out, nil
}
