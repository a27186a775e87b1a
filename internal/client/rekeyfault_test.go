package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/keyreg"
	"repro/internal/policy"
	"repro/internal/store"
	"repro/internal/testenv"
)

// putFaults counts the blob writes every backend sharing it commits
// and, once armed, fails one of them.
type putFaults struct {
	mu    sync.Mutex
	fail  int // the put to fail, counting from 1 after arming; 0 is disarmed
	puts  int
	fired bool
}

func (f *putFaults) arm(k int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fail, f.puts, f.fired = k, 0, false
}

// disarm stops counting and reports whether the armed put failed.
func (f *putFaults) disarm() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fail = 0
	return f.fired
}

func (f *putFaults) hit() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail == 0 {
		return false
	}
	f.puts++
	f.fired = f.fired || f.puts == f.fail
	return f.puts == f.fail
}

// faultyBackend fails the write its putFaults picks. A blob put is
// durable, and acknowledged, once the server's blob journal has appended
// it to its log, so that append is the write to fail: it counts only
// appends to the blob journal's log, so a write of the dedup store's or
// the file index's own state cannot shift the count.
type faultyBackend struct {
	store.Backend
	faults *putFaults
}

func (b faultyBackend) WriteAt(ctx context.Context, ns, name string, off int64, data []byte) error {
	if ns == store.NSBlobWAL && b.faults.hit() {
		return errors.New("injected blob journal fault")
	}
	return b.Backend.WriteAt(ctx, ns, name, off, data)
}

// TestActiveRekeyFaultAtEveryWrite interrupts an active rekey — of one
// file, and of three files as a group — at each of its durable writes
// in turn: the k-th blob journal append on the data shard or the key
// store fails, for every k the rekey issues. The put it carried stays
// in the server's memory, to land with the next commit or be lost in a
// crash, so readers see it; the checks below hold either way. After each failure the owner and a user
// the new policy keeps must still download every file byte-identical,
// a retried rekey must succeed, and the user it revokes must then fail.
func TestActiveRekeyFaultAtEveryWrite(t *testing.T) {
	cluster := startCluster(t)
	faults := &putFaults{}
	_, dataAddr := testenv.StartServerOn(t, faultyBackend{store.NewMemory(), faults})
	_, keyAddr := testenv.StartServerOn(t, faultyBackend{store.NewMemory(), faults})
	user := func(name string) *Client {
		owner, err := keyreg.NewOwner(keyreg.DefaultBits, nil)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(ctx, Config{
			UserID:         name,
			Scheme:         core.SchemeBasic,
			DataServers:    []string{dataAddr},
			KeyStoreServer: keyAddr,
			KeyManager:     cluster.KMAddr,
			PrivateKey:     cluster.Authority.IssueKey(name, []string{name}),
			Directory:      cluster.Authority,
			Owner:          owner,
			FixedChunkSize: 4 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return c
	}
	alice, bob, carol := user("alice"), user("bob"), user("carol")
	before := policy.OrOfUsers([]string{"alice", "bob", "carol"})
	after := policy.OrOfUsers([]string{"alice", "bob"})

	for _, files := range []int{1, 3} {
		rekey := func(paths []string) error {
			if files == 1 {
				_, err := alice.Rekey(ctx, paths[0], after, true)
				return err
			}
			_, err := alice.RekeyGroup(ctx, paths, after, true)
			return err
		}
		t.Run(fmt.Sprintf("files=%d", files), func(t *testing.T) {
			for k := 1; ; k++ {
				if k > 4*files+1 {
					t.Fatalf("the rekey still failed with put %d failing", k-1)
				}
				paths := make([]string, files)
				data := make([][]byte, files)
				for i := range paths {
					paths[i] = fmt.Sprintf("/fault/%d/k%d/%d", files, k, i)
					data[i] = randomFile(t, 16<<10+i, int64(100*files+10*k+i))
					if _, err := alice.Upload(ctx, paths[i], bytes.NewReader(data[i]), before); err != nil {
						t.Fatal(err)
					}
				}

				faults.arm(k)
				err := rekey(paths)
				if !faults.disarm() {
					if err != nil {
						t.Fatalf("unfaulted rekey: %v", err)
					}
					// Two durable writes per file: its key state, then its
					// stub file.
					if k-1 != 2*files {
						t.Fatalf("an active rekey of %d file(s) made %d durable writes, want %d", files, k-1, 2*files)
					}
					return
				}
				if err == nil {
					t.Fatalf("put %d failed, but the rekey reported success", k)
				}
				for i, p := range paths {
					for _, c := range []*Client{alice, bob} {
						got, err := c.Download(ctx, p)
						if err != nil {
							t.Fatalf("put %d failed: %s cannot download %s: %v", k, c.cfg.UserID, p, err)
						}
						if !bytes.Equal(got, data[i]) {
							t.Fatalf("put %d failed: %s downloads %s wrong", k, c.cfg.UserID, p)
						}
					}
				}
				if err := rekey(paths); err != nil {
					t.Fatalf("put %d failed: the retried rekey fails: %v", k, err)
				}
				for i, p := range paths {
					if got, err := bob.Download(ctx, p); err != nil || !bytes.Equal(got, data[i]) {
						t.Fatalf("put %d failed: bob cannot download %s after the retry: %v", k, p, err)
					}
					if _, err := carol.Download(ctx, p); err == nil {
						t.Fatalf("put %d failed: the revoked user still downloads %s after the retry", k, p)
					}
				}
			}
		})
	}
}
