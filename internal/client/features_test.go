package client

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/keyreg"
	"repro/internal/policy"
	"repro/internal/store"
	"repro/internal/testenv"
)

// newObfuscatedUser builds a client with pathname obfuscation on.
func newObfuscatedUser(t testing.TB, cluster *testenv.Cluster, user string, salt []byte) *Client {
	t.Helper()
	owner, err := keyreg.NewOwner(keyreg.DefaultBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(ctx, Config{
		UserID:         user,
		Scheme:         core.SchemeEnhanced,
		DataServers:    cluster.DataAddrs,
		KeyStoreServer: cluster.KeyAddr,
		KeyManager:     cluster.KMAddr,
		PrivateKey:     cluster.Authority.IssueKey(user, []string{user}),
		Directory:      cluster.Authority,
		Owner:          owner,
		ObfuscatePaths: true,
		PathSalt:       salt,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestPathObfuscationRoundTrip(t *testing.T) {
	cluster := startCluster(t)
	salt := []byte("0123456789abcdef0123456789abcdef")
	c := newObfuscatedUser(t, cluster, "alice", salt)

	data := randomFile(t, 64<<10, 21)
	secretPath := "/hr/salaries-2016.xlsx"
	if _, err := c.Upload(ctx, secretPath, bytes.NewReader(data), policy.OrOfUsers([]string{"alice"})); err != nil {
		t.Fatal(err)
	}
	got, err := c.Download(ctx, secretPath)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("obfuscated round trip: %v", err)
	}
	// Rekeying works through the obfuscated name too.
	if _, err := c.Rekey(ctx, secretPath, policy.OrOfUsers([]string{"alice"}), true); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Download(ctx, secretPath); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("download after rekey: %v", err)
	}
}

// TestPathObfuscationHidesNames inspects what the servers actually store:
// no remote object name may contain the sensitive pathname.
func TestPathObfuscationHidesNames(t *testing.T) {
	cluster := startCluster(t)
	salt := []byte("0123456789abcdef0123456789abcdef")
	c := newObfuscatedUser(t, cluster, "alice", salt)

	data := randomFile(t, 32<<10, 22)
	if _, err := c.Upload(ctx, "/secret-project/plan.doc", bytes.NewReader(data), policy.OrOfUsers([]string{"alice"})); err != nil {
		t.Fatal(err)
	}
	for _, srv := range cluster.DataServers {
		// A checkpoint moves the journaled blobs into their namespaces.
		if err := srv.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		for _, ns := range []string{store.NSRecipes, store.NSStubs} {
			names, err := srv.Backend().List(ctx, ns)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				if bytes.Contains([]byte(name), []byte("secret-project")) ||
					bytes.Contains([]byte(name), []byte("plan.doc")) {
					t.Fatalf("pathname leaked into %s blob name %q", ns, name)
				}
			}
		}
	}
}

func TestPathObfuscationSaltMatters(t *testing.T) {
	cluster := startCluster(t)
	c1 := newObfuscatedUser(t, cluster, "alice", []byte("salt-one-salt-one-salt-one-32byt"))
	c2 := newObfuscatedUser(t, cluster, "alice2", []byte("salt-two-salt-two-salt-two-32byt"))

	data := randomFile(t, 16<<10, 23)
	if _, err := c1.Upload(ctx, "/x", bytes.NewReader(data), policy.OrOfUsers([]string{"alice", "alice2"})); err != nil {
		t.Fatal(err)
	}
	// A client with a different salt addresses a different object.
	if _, err := c2.Download(ctx, "/x"); err == nil {
		t.Fatal("client with different salt found the file")
	}
}

func TestObfuscationRequiresSalt(t *testing.T) {
	cluster := startCluster(t)
	owner, err := keyreg.NewOwner(keyreg.DefaultBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(ctx, Config{
		UserID:         "alice",
		Scheme:         core.SchemeBasic,
		DataServers:    cluster.DataAddrs,
		KeyStoreServer: cluster.KeyAddr,
		KeyManager:     cluster.KMAddr,
		PrivateKey:     cluster.Authority.IssueKey("alice", []string{"alice"}),
		Directory:      cluster.Authority,
		Owner:          owner,
		ObfuscatePaths: true,
		PathSalt:       []byte("short"),
	})
	if err == nil {
		t.Fatal("short salt accepted")
	}
}

func TestRekeyGroup(t *testing.T) {
	cluster := startCluster(t)
	alice := newUser(t, cluster, "alice", core.SchemeEnhanced)
	bob := newUser(t, cluster, "bob", core.SchemeEnhanced)

	shared := policy.OrOfUsers([]string{"alice", "bob"})
	var paths []string
	files := make(map[string][]byte)
	for i := 0; i < 4; i++ {
		path := fmt.Sprintf("/group/file-%d", i)
		data := randomFile(t, 32<<10, int64(40+i))
		if _, err := alice.Upload(ctx, path, bytes.NewReader(data), shared); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
		files[path] = data
	}

	res, err := alice.RekeyGroup(ctx, paths, policy.OrOfUsers([]string{"alice"}), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Files != 4 {
		t.Fatalf("Files = %d", res.Files)
	}
	if res.PolicyEncryptions != 1 {
		t.Fatalf("PolicyEncryptions = %d, want 1 (amortized)", res.PolicyEncryptions)
	}
	if res.StubBytes == 0 {
		t.Fatal("active group rekey re-encrypted no stubs")
	}

	// Alice keeps access to every file; bob loses all of them.
	for path, data := range files {
		got, err := alice.Download(ctx, path)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("alice download %s after group rekey: %v", path, err)
		}
		if _, err := bob.Download(ctx, path); err == nil {
			t.Fatalf("bob still reads %s after group revocation", path)
		}
	}
}

func TestRekeyGroupLazy(t *testing.T) {
	cluster := startCluster(t)
	alice := newUser(t, cluster, "alice", core.SchemeBasic)
	pol := policy.OrOfUsers([]string{"alice"})

	var paths []string
	for i := 0; i < 3; i++ {
		path := fmt.Sprintf("/lazy-group/%d", i)
		data := randomFile(t, 16<<10, int64(50+i))
		if _, err := alice.Upload(ctx, path, bytes.NewReader(data), pol); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	res, err := alice.RekeyGroup(ctx, paths, pol, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.StubBytes != 0 {
		t.Fatal("lazy group rekey touched stubs")
	}
	// Files remain readable via key regression.
	for _, path := range paths {
		if _, err := alice.Download(ctx, path); err != nil {
			t.Fatalf("download %s after lazy group rekey: %v", path, err)
		}
	}
}

func TestRekeyGroupValidation(t *testing.T) {
	cluster := startCluster(t)
	alice := newUser(t, cluster, "alice", core.SchemeBasic)
	pol := policy.OrOfUsers([]string{"alice"})
	if _, err := alice.RekeyGroup(ctx, nil, pol, false); err == nil {
		t.Fatal("empty path list accepted")
	}
	if _, err := alice.RekeyGroup(ctx, []string{"/absent"}, pol, false); err == nil {
		t.Fatal("missing file accepted")
	}
	// A path named twice is refused before anything is written: the
	// file's key version does not move.
	if _, err := alice.Upload(ctx, "/dup", bytes.NewReader(randomFile(t, 16<<10, 69)), pol); err != nil {
		t.Fatal(err)
	}
	before, err := alice.DownloadTo(ctx, "/dup", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.RekeyGroup(ctx, []string{"/dup", "/dup"}, pol, true); err == nil {
		t.Fatal("repeated path accepted")
	}
	after, err := alice.DownloadTo(ctx, "/dup", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if after.KeyVersion != before.KeyVersion {
		t.Fatalf("refused group rekey moved the key version %d -> %d", before.KeyVersion, after.KeyVersion)
	}
}

func TestList(t *testing.T) {
	cluster := startCluster(t)
	c := newUser(t, cluster, "alice", core.SchemeBasic)
	pol := policy.OrOfUsers([]string{"alice"})
	for _, path := range []string{"/z", "/a", "/m"} {
		if _, err := c.Upload(ctx, path, bytes.NewReader(randomFile(t, 8<<10, 70)), pol); err != nil {
			t.Fatal(err)
		}
	}
	names, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != "/a" || names[1] != "/m" || names[2] != "/z" {
		t.Fatalf("List = %v, want sorted [/a /m /z]", names)
	}
}
