package client

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/keyreg"
	"repro/internal/policy"
	"repro/internal/store"
	"repro/internal/store/storetest"
	"repro/internal/testenv"
)

// TestActiveRekeyFaultAtEveryWrite interrupts an active rekey — of one
// file, and of three files as a group — at each of its durable writes
// in turn: the k-th blob journal append on the data shard or the key
// store, for every k the rekey issues. A blob put is durable, and
// acknowledged, once the server's blob journal has appended it to its
// log, so that append is the write to interrupt; counting only those
// appends, a write of the dedup store's or the file index's own state
// cannot shift the count. The interruption takes two forms:
//
//   - the append fails: the put it carried stays in the server's
//     memory, to land with the next commit, so readers see it;
//   - the power to both servers is cut while the append is in flight,
//     and each restarts on what its disk holds (the clients reconnect
//     to the new addresses; with one data shard placement does not
//     depend on them).
//
// After each interruption the owner and a user the new policy keeps
// must still download every file byte-identical, a retried rekey must
// succeed, and the user it revokes must then fail.
func TestActiveRekeyFaultAtEveryWrite(t *testing.T) {
	cluster := startCluster(t)
	before := policy.OrOfUsers([]string{"alice", "bob", "carol"})
	after := policy.OrOfUsers([]string{"alice", "bob"})

	for _, files := range []int{1, 3} {
		t.Run(fmt.Sprintf("files=%d", files), func(t *testing.T) {
			for _, powerCut := range []bool{false, true} {
				t.Run(map[bool]string{false: "append fails", true: "power cut"}[powerCut], func(t *testing.T) {
					faults := storetest.New()
					owner, err := keyreg.NewOwner(keyreg.DefaultBits, nil) // alice's: only she uploads
					if err != nil {
						t.Fatal(err)
					}
					var alice, bob, carol *Client
					// start starts both servers on their disks and connects
					// the three users to them. After a cut the old servers,
					// whose every write now fails, stay up until the test
					// ends, but nothing talks to them.
					start := func() {
						_, dataAddr := testenv.StartServerOn(t, faults.View("data"))
						_, keyAddr := testenv.StartServerOn(t, faults.View("keys"))
						user := func(name string) *Client {
							c, err := New(ctx, Config{
								UserID:         name,
								Scheme:         core.SchemeBasic,
								DataServers:    []string{dataAddr},
								KeyStoreServer: keyAddr,
								KeyManager:     cluster.KMAddr,
								PrivateKey:     cluster.Authority.IssueKey(name, []string{name}),
								Directory:      cluster.Authority,
								Owner:          map[string]*keyreg.Owner{"alice": owner}[name],
								FixedChunkSize: 4 << 10,
							})
							if err != nil {
								t.Fatal(err)
							}
							t.Cleanup(func() { _ = c.Close() })
							return c
						}
						alice, bob, carol = user("alice"), user("bob"), user("carol")
					}
					start()
					rekey := func(paths []string) error {
						if files == 1 {
							_, err := alice.Rekey(ctx, paths[0], after, true)
							return err
						}
						_, err := alice.RekeyGroup(ctx, paths, after, true)
						return err
					}

					for k := 1; ; k++ {
						if k > 4*files+1 {
							t.Fatalf("the rekey still failed with put %d interrupted", k-1)
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

						// The k-th append fails, or the power is cut while it
						// is in flight; CutAt with no disk to cut only holds it.
						at := &storetest.Rule{Ops: storetest.WriteAt, NS: []string{store.NSBlobWAL}, Skip: k - 1, Fail: !powerCut}
						disks := map[bool][]string{true: {"data", "keys"}}[powerCut]
						lost, err := faults.CutAt(rand.New(rand.NewSource(int64(k))), at, func() error { return rekey(paths) }, disks...)
						if lost < 0 {
							if err != nil {
								t.Fatalf("uninterrupted rekey: %v", err)
							}
							// Two durable writes per file: its key state, then its
							// stub file.
							if k-1 != 2*files || at.Hits() != k-1 {
								t.Fatalf("an active rekey of %d file(s) made %d durable writes, want %d", files, at.Hits(), 2*files)
							}
							return
						}
						if powerCut {
							start()
						}
						if err == nil {
							t.Fatalf("put %d was interrupted, but the rekey reported success", k)
						}
						for i, p := range paths {
							for _, c := range []*Client{alice, bob} {
								got, err := c.Download(ctx, p)
								if err != nil {
									t.Fatalf("put %d interrupted: %s cannot download %s: %v", k, c.cfg.UserID, p, err)
								}
								if !bytes.Equal(got, data[i]) {
									t.Fatalf("put %d interrupted: %s downloads %s wrong", k, c.cfg.UserID, p)
								}
							}
						}
						if err := rekey(paths); err != nil {
							t.Fatalf("put %d interrupted: the retried rekey fails: %v", k, err)
						}
						for i, p := range paths {
							if got, err := bob.Download(ctx, p); err != nil || !bytes.Equal(got, data[i]) {
								t.Fatalf("put %d interrupted: bob cannot download %s after the retry: %v", k, p, err)
							}
							if _, err := carol.Download(ctx, p); err == nil {
								t.Fatalf("put %d interrupted: the revoked user still downloads %s after the retry", k, p)
							}
						}
					}
				})
			}
		})
	}
}
