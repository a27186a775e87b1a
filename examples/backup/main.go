// Backup demonstrates REED on the workload that motivates it: daily
// backup snapshots with high day-over-day similarity.
//
// A client takes seven daily backups of a slowly mutating data set.
// Each day only a small fraction of the data changes, so deduplication
// keeps physical storage almost flat while logical data grows linearly
// — and the MLE key cache makes later uploads much faster than the
// first, because keys for unchanged chunks never leave the client.
//
// Run it with:
//
//	go run ./examples/backup
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"
	"time"

	reed "repro"
)

const (
	days        = 7
	backupBytes = 8 << 20 // daily backup size
	mutations   = 32      // chunks-worth of churn per day
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	dataAddrs, keyAddr, kmAddr, authority, shutdown, err := startDeployment()
	if err != nil {
		return err
	}
	defer shutdown()

	owner, err := reed.NewOwner()
	if err != nil {
		return err
	}
	client, err := reed.NewClient(context.Background(), reed.ClientConfig{
		UserID:         "backup-operator",
		Scheme:         reed.SchemeEnhanced,
		DataServers:    dataAddrs,
		KeyStoreServer: keyAddr,
		KeyManager:     kmAddr,
		PrivateKey:     authority.IssueKey("backup-operator", []string{"backup-operator"}),
		Directory:      authority,
		Owner:          owner,
	})
	if err != nil {
		return err
	}
	defer client.Close()
	pol := reed.PolicyForUsers("backup-operator")

	// The "file system" being backed up: mutate a few regions each day.
	rng := rand.New(rand.NewSource(7))
	fsData := make([]byte, backupBytes)
	rng.Read(fsData)

	fmt.Printf("%-6s %-12s %-14s %-16s %-14s %s\n",
		"day", "chunks", "new chunks", "upload time", "stored total", "saving")

	var logicalTotal int64
	for day := 1; day <= days; day++ {
		// Daily churn: overwrite a few 8 KB regions.
		for m := 0; m < mutations; m++ {
			off := rng.Intn(len(fsData) - 8192)
			rng.Read(fsData[off : off+8192])
		}

		path := fmt.Sprintf("/backups/day-%02d.img", day)
		start := time.Now()
		res, err := client.Upload(ctx, path, bytes.NewReader(fsData), pol)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		logicalTotal += res.LogicalBytes

		stored, err := storedBytes(ctx, client)
		if err != nil {
			return err
		}
		saving := 100 * (1 - float64(stored)/float64(logicalTotal))
		fmt.Printf("%-6d %-12d %-14d %-16v %-14s %.1f%%\n",
			day, res.Chunks, res.Chunks-res.DuplicateChunks,
			elapsed.Round(time.Millisecond),
			fmt.Sprintf("%.1f MB", float64(stored)/(1<<20)), saving)
	}

	// Every historical snapshot remains restorable.
	fmt.Println("\nverifying restores...")
	for day := 1; day <= days; day++ {
		path := fmt.Sprintf("/backups/day-%02d.img", day)
		got, err := client.Download(ctx, path)
		if err != nil {
			return fmt.Errorf("restore day %d: %w", day, err)
		}
		if len(got) != backupBytes {
			return fmt.Errorf("restore day %d: %d bytes", day, len(got))
		}
	}
	// The latest snapshot must be bit-identical to the live data.
	got, err := client.Download(ctx, fmt.Sprintf("/backups/day-%02d.img", days))
	if err != nil {
		return err
	}
	if !bytes.Equal(got, fsData) {
		return fmt.Errorf("latest restore differs from live data")
	}
	fmt.Printf("all %d snapshots restorable; latest verified bit-identical\n", days)

	hits, misses := client.CacheStats()
	fmt.Printf("MLE key cache: %d hits, %d misses (%.1f%% of keys served locally)\n",
		hits, misses, 100*float64(hits)/float64(hits+misses))
	return nil
}

// storedBytes sums physical and stub bytes across all servers.
func storedBytes(ctx context.Context, client *reed.Client) (uint64, error) {
	stats, err := client.ServerStats(ctx)
	if err != nil {
		return 0, err
	}
	var total uint64
	for _, s := range stats {
		total += s.PhysicalBytes + s.StubBytes
	}
	return total, nil
}

// startDeployment boots an in-process deployment (see examples/quickstart
// for the annotated version).
func startDeployment() (dataAddrs []string, keyAddr, kmAddr string, authority *reed.Authority, shutdown func(), err error) {
	var shutdowns []func()
	shutdown = func() {
		for _, fn := range shutdowns {
			fn()
		}
	}

	km, err := reed.NewKeyManagerServer(1024, 0)
	if err != nil {
		return nil, "", "", nil, shutdown, err
	}
	kmAddr, err = serve(func(ln net.Listener) error { return km.Serve(ln) })
	if err != nil {
		return nil, "", "", nil, shutdown, err
	}
	shutdowns = append(shutdowns, km.Shutdown)

	// Two data servers, then the key-store server.
	ctx := context.Background()
	var addrs []string
	for i := 0; i < 3; i++ {
		backend, err := reed.OpenBackend(ctx, "mem://")
		if err != nil {
			return nil, "", "", nil, shutdown, err
		}
		srv, err := reed.OpenStorageServer(ctx, backend)
		if err != nil {
			return nil, "", "", nil, shutdown, err
		}
		addr, err := serve(func(ln net.Listener) error { return srv.Serve(ln) })
		if err != nil {
			return nil, "", "", nil, shutdown, err
		}
		shutdowns = append(shutdowns, func() { _ = srv.Shutdown() })
		addrs = append(addrs, addr)
	}
	dataAddrs, keyAddr = addrs[:2], addrs[2]

	authority, err = reed.NewAuthority()
	if err != nil {
		return nil, "", "", nil, shutdown, err
	}
	return dataAddrs, keyAddr, kmAddr, authority, shutdown, nil
}

func serve(fn func(net.Listener) error) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go func() { _ = fn(ln) }()
	return ln.Addr().String(), nil
}
