package client

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/keyreg"
	"repro/internal/netem"
	"repro/internal/policy"
	"repro/internal/retry"
	"repro/internal/testenv"
)

// Chaos tests: scripted connection faults (internal/netem) fire at
// deterministic byte offsets while real uploads and downloads run, and
// the client must recover transparently — reconnect, re-issue or
// re-send, and produce byte-identical results. Seeded fault plans make
// every run hit the same failure point.
//
// Dial order in New pins the plan indices: conn 0 is the key manager,
// conns 1..len(DataServers) are the data servers in order, and the last
// conn is the key-store server. Redials take fresh indices past those,
// which the plans leave unscripted, so a replacement connection is
// healthy.

// chaosPolicy keeps fault-recovery backoff short so chaos tests stay
// fast; the seed makes the jitter sequence reproducible.
func chaosPolicy() retry.Policy {
	return retry.Policy{
		InitialDelay: time.Millisecond,
		MaxDelay:     20 * time.Millisecond,
		MaxAttempts:  6,
		Seed:         7,
	}
}

// chaosConfig builds a client Config routing through plan's dialer with
// small fixed chunks and upload batches, so a 256 KiB file crosses many
// PUT frames and a byte-offset cut lands mid-conversation.
func chaosConfig(cluster *testenv.Cluster, user string, owner *keyreg.Owner, plan *netem.Plan) Config {
	return Config{
		UserID:         user,
		Scheme:         core.SchemeBasic,
		DataServers:    cluster.DataAddrs,
		KeyStoreServer: cluster.KeyAddr,
		KeyManager:     cluster.KMAddr,
		PrivateKey:     cluster.Authority.IssueKey(user, []string{user}),
		Directory:      cluster.Authority,
		Owner:          owner,
		FixedChunkSize: 4 << 10,
		UploadBuffer:   16 << 10,
		Dialer:         plan.Dialer(nil),
		Retry:          chaosPolicy(),
	}
}

func newChaosUser(t testing.TB, cluster *testenv.Cluster, user string, plan *netem.Plan) *Client {
	t.Helper()
	owner, err := keyreg.NewOwner(keyreg.DefaultBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(ctx, chaosConfig(cluster, user, owner, plan))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestChaosUploadSurvivesDataServerCut kills the first data server's
// connection mid-PUT — the cut fires once 48 KiB of requests have gone
// out, i.e. during the 3rd 16 KiB batch — and the upload must complete
// via automatic reconnect plus the pipeline's segment-batch re-send,
// with a byte-identical download afterwards.
func TestChaosUploadSurvivesDataServerCut(t *testing.T) {
	cluster := startCluster(t)
	plan := netem.NewPlan(42)
	plan.OnDial(1, netem.Fault{CutAfterWriteBytes: 48 << 10})
	c := newChaosUser(t, cluster, "alice", plan)

	data := randomFile(t, 256<<10, 71)
	pol := policy.OrOfUsers([]string{"alice"})
	res, err := c.Upload(ctx, "/chaos/putcut", bytes.NewReader(data), pol)
	if err != nil {
		t.Fatalf("upload across data-server cut: %v", err)
	}
	if plan.Injected() != 1 {
		t.Fatalf("Injected() = %d, want 1 (the scripted cut must actually fire)", plan.Injected())
	}
	if res.Retry.Reconnects < 1 {
		t.Fatalf("Retry.Reconnects = %d, want >= 1", res.Retry.Reconnects)
	}
	if res.Retry.RetriedBatches < 1 {
		t.Fatalf("Retry.RetriedBatches = %d, want >= 1 (the killed PUT batch must be re-sent)", res.Retry.RetriedBatches)
	}

	got, err := c.Download(ctx, "/chaos/putcut")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip across injected fault is not byte-identical")
	}
}

// TestChaosUploadSurvivesKeyManagerFault cuts the key-manager
// connection during the first OPRF keygen batch. Key-manager RPCs are
// idempotent (deterministic evaluations of blinded inputs), so the
// transport re-issues them on the replacement connection without the
// pipeline noticing.
func TestChaosUploadSurvivesKeyManagerFault(t *testing.T) {
	cluster := startCluster(t)
	plan := netem.NewPlan(43)
	// Past the tiny params fetch, inside the first keygen request frame
	// (64 blinded values of 128 bytes each).
	plan.OnDial(0, netem.Fault{CutAfterWriteBytes: 4 << 10})
	c := newChaosUser(t, cluster, "alice", plan)

	data := randomFile(t, 256<<10, 72)
	pol := policy.OrOfUsers([]string{"alice"})
	res, err := c.Upload(ctx, "/chaos/kmcut", bytes.NewReader(data), pol)
	if err != nil {
		t.Fatalf("upload across key-manager cut: %v", err)
	}
	if plan.Injected() != 1 {
		t.Fatalf("Injected() = %d, want 1", plan.Injected())
	}
	if res.Retry.Reconnects < 1 || res.Retry.RetriedCalls < 1 {
		t.Fatalf("Retry = %+v, want >= 1 reconnect and >= 1 transparently retried call", res.Retry)
	}

	got, err := c.Download(ctx, "/chaos/kmcut")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip across key-manager fault is not byte-identical")
	}
}

// TestChaosDownloadSurvivesReadCut uploads over a healthy network, then
// downloads through connections whose data-server links die after
// 32 KiB of responses. GetChunks is read-only, so recovery is entirely
// transparent transport re-issue.
func TestChaosDownloadSurvivesReadCut(t *testing.T) {
	cluster := startCluster(t)
	healthy := newUser(t, cluster, "alice", core.SchemeBasic)
	data := randomFile(t, 4<<20, 73)
	pol := policy.OrOfUsers([]string{"alice"})
	if _, err := healthy.Upload(ctx, "/chaos/readcut", bytes.NewReader(data), pol); err != nil {
		t.Fatal(err)
	}

	plan := netem.NewPlan(44)
	// Both data-server connections die partway through their response
	// streams. Each serves ~2 MiB of this file in one GetChunks reply,
	// more than a server's write buffer holds, so the cut lands inside a
	// vectored write of the chunks.
	plan.OnDial(1, netem.Fault{CutAfterReadBytes: 32 << 10})
	plan.OnDial(2, netem.Fault{CutAfterReadBytes: 32 << 10})
	reader := newChaosUser(t, cluster, "alice", plan)

	var sink bytes.Buffer
	res, err := reader.DownloadTo(ctx, "/chaos/readcut", &sink)
	if err != nil {
		t.Fatalf("download across read cuts: %v", err)
	}
	if plan.Injected() < 1 {
		t.Fatal("no scripted cut fired")
	}
	if res.Retry.Reconnects < 1 || res.Retry.RetriedCalls < 1 {
		t.Fatalf("Retry = %+v, want >= 1 reconnect and >= 1 retried call", res.Retry)
	}
	if !bytes.Equal(sink.Bytes(), data) {
		t.Fatal("download across injected faults is not byte-identical")
	}
}

// TestChaosFaultUnderLatency composes the fault plan with an emulated
// 200 Mb/s, 1 ms-RTT link: the cut must fire at the same byte offset
// and recovery must still work when every connection is shaped.
func TestChaosFaultUnderLatency(t *testing.T) {
	cluster := startCluster(t)
	link, err := netem.NewLinkRTT(25<<20, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	plan := netem.NewPlan(45)
	// 16 KiB, not 48: chunk→shard routing hashes the cluster's ephemeral
	// port addresses, so data server 0's share of this 128 KiB file
	// varies run to run (observed as low as ~10 of 32 chunks). The
	// first data connection always carries at least one 16 KiB PUT
	// batch, so this offset fires deterministically mid-PUT.
	plan.OnDial(1, netem.Fault{CutAfterWriteBytes: 16 << 10})

	owner, err := keyreg.NewOwner(keyreg.DefaultBits, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig(cluster, "alice", owner, plan)
	cfg.Dialer = plan.Dialer(link.Dialer(nil))
	c, err := New(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	data := randomFile(t, 128<<10, 74)
	pol := policy.OrOfUsers([]string{"alice"})
	res, err := c.Upload(ctx, "/chaos/latency", bytes.NewReader(data), pol)
	if err != nil {
		t.Fatalf("upload across cut on shaped link: %v", err)
	}
	if plan.Injected() != 1 {
		t.Fatalf("Injected() = %d, want 1", plan.Injected())
	}
	if res.Retry.Reconnects < 1 {
		t.Fatalf("Retry.Reconnects = %d, want >= 1", res.Retry.Reconnects)
	}
	got, err := c.Download(ctx, "/chaos/latency")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip on faulty shaped link is not byte-identical")
	}
}

// TestChaosRecoveryLeaksNoGoroutines runs a full fault-recovery upload
// with inline setup and teardown, then verifies the process quiesces:
// retired connections, redials, and serve loops all clean up after
// themselves.
func TestChaosRecoveryLeaksNoGoroutines(t *testing.T) {
	kmKey := sharedKMKey(t) // warm the shared fixture before counting
	before := runtime.NumGoroutine()

	cluster, err := testenv.Start(testenv.Options{DataServers: 2, KMKey: kmKey})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := keyreg.NewOwner(keyreg.DefaultBits, nil)
	if err != nil {
		cluster.Close()
		t.Fatal(err)
	}
	plan := netem.NewPlan(46)
	plan.OnDial(1, netem.Fault{CutAfterWriteBytes: 48 << 10})
	c, err := New(ctx, chaosConfig(cluster, "alice", owner, plan))
	if err != nil {
		cluster.Close()
		t.Fatal(err)
	}

	data := randomFile(t, 256<<10, 75)
	res, uploadErr := c.Upload(ctx, "/chaos/leak", bytes.NewReader(data), policy.OrOfUsers([]string{"alice"}))
	_ = c.Close()
	cluster.Close()
	if uploadErr != nil {
		t.Fatalf("upload: %v", uploadErr)
	}
	if res.Retry.Reconnects < 1 {
		t.Fatalf("Retry.Reconnects = %d, want >= 1", res.Retry.Reconnects)
	}

	// Connection teardown is asynchronous; give the runtime a moment.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after teardown\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
