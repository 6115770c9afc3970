package cluster

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fit"
	"repro/internal/lock"
	"repro/internal/polltest"
	"repro/internal/rpc"
	"repro/internal/rpcfs"
	"repro/internal/simclock"
)

func TestShardForPathColocation(t *testing.T) {
	n := 4
	base := ShardForPath("/a/b/x", n)
	for _, p := range []string{"/a/b/y", "/a/b/z", "/a/b/x"} {
		if got := ShardForPath(p, n); got != base {
			t.Fatalf("ShardForPath(%q) = %d, want %d (same directory must colocate)", p, got, base)
		}
	}
	if got := ShardForPath("/top", 1); got != 0 {
		t.Fatalf("single shard: got %d", got)
	}
	// Different directories should spread (not a hard guarantee per pair,
	// but across many directories every shard must be hit).
	hit := make(map[int]bool)
	for i := 0; i < 64; i++ {
		hit[ShardForPath(fmt.Sprintf("/dir%d/f", i), n)] = true
	}
	if len(hit) != n {
		t.Fatalf("64 directories hit only shards %v of %d", hit, n)
	}
}

func TestRoutedIDRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		shard int
		raw   uint64
	}{{0, 1}, {3, 42}, {7, 1 << 40}, {255, 0}} {
		routed := RoutedID(tc.shard, tc.raw)
		shard, raw := SplitID(routed)
		if shard != tc.shard || raw != tc.raw {
			t.Fatalf("SplitID(RoutedID(%d, %d)) = %d, %d", tc.shard, tc.raw, shard, raw)
		}
	}
}

func TestNotMineRoundTrip(t *testing.T) {
	err := NotMine(5, 9)
	home, ok := ParseNotMine(err)
	if !ok || home != 5 {
		t.Fatalf("ParseNotMine = %d, %v", home, ok)
	}
	// Wrapped in a service error, as it arrives at the client.
	serr := &rpc.ServiceError{Method: "fs.create", Message: err.Error()}
	home, ok = ParseNotMine(serr)
	if !ok || home != 5 {
		t.Fatalf("ParseNotMine(ServiceError) = %d, %v", home, ok)
	}
	if _, ok := ParseNotMine(fmt.Errorf("unrelated")); ok {
		t.Fatal("unrelated error parsed as redirect")
	}
	if _, ok := ParseNotMine(nil); ok {
		t.Fatal("nil error parsed as redirect")
	}
}

func TestMapCodecRoundTrip(t *testing.T) {
	m := Map{Version: 7, Endpoints: []string{"a:1", "b:2", "c:3"}}
	got, err := decodeMap(appendMap(nil, m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != m.Version || len(got.Endpoints) != 3 || got.Endpoints[2] != "c:3" || len(got.Backups) != 0 {
		t.Fatalf("decodeMap = %+v", got)
	}
	paired := Map{Version: 9, Endpoints: []string{"a:1", "b:2"}, Backups: []string{"", "bb:2"}}
	if got, err := decodeMap(appendMap(nil, paired)); err != nil || !reflect.DeepEqual(got, paired) {
		t.Fatalf("decodeMap(%+v) = %+v, %v", paired, got, err)
	}
	if _, err := decodeMap([]byte{1, 2}); err == nil {
		t.Fatal("truncated map decoded")
	}
	// Every encoder writes the backups section: a payload that ends after
	// the endpoints is cut short.
	endpointsEnd := mapSize(Map{Endpoints: paired.Endpoints}) - 4 // less the backup count
	if _, err := decodeMap(appendMap(nil, paired)[:endpointsEnd]); err == nil {
		t.Fatal("map cut after its endpoints decoded")
	}
}

func TestLeaseTable(t *testing.T) {
	clk := simclock.New()
	tab := NewLeaseTable(100*time.Millisecond, clk)
	if ok, created := tab.Grant(1, 10); !ok || !created {
		t.Fatalf("first grant: ok=%v created=%v", ok, created)
	}
	if ok, created := tab.Grant(1, 10); !ok || created {
		t.Fatalf("extending grant: ok=%v created=%v", ok, created)
	}
	if ok, _ := tab.Grant(2, 10); ok {
		t.Fatal("second client granted another client's txn")
	}
	if !tab.Renew(1, 10) {
		t.Fatal("owner renewal refused")
	}
	if tab.Renew(2, 10) {
		t.Fatal("non-owner renewal accepted")
	}
	clk.Advance(50 * time.Millisecond)
	if due := tab.ExpireDue(); len(due) != 0 {
		t.Fatalf("expired early: %v", due)
	}
	clk.Advance(60 * time.Millisecond)
	if due := tab.ExpireDue(); len(due) != 1 || due[0] != 10 {
		t.Fatalf("ExpireDue = %v, want [10]", due)
	}
	if tab.Renew(1, 10) {
		t.Fatal("renewal after expiry accepted")
	}
	// A released lease never expires.
	tab.Grant(1, 11)
	tab.Release(11)
	clk.Advance(time.Hour)
	if due := tab.ExpireDue(); len(due) != 0 {
		t.Fatalf("released lease expired: %v", due)
	}
}

// rig is an N-shard cluster on loopback TCP. Every shard's lock manager,
// lease table and sweep run on clk.
type rig struct {
	cores []*core.Cluster
	svcs  []*Service
	srvs  []*rpc.TCPServer
	m     Map
	clk   *simclock.Virtual
}

// expire steps the rig's clock a quarter lease at a time, running the lease
// sweeps and the clients' renewals, until txn is broken on shard 0.
func (r *rig) expire(t *testing.T, ttl time.Duration, txn lock.TxnID) {
	t.Helper()
	for i := 0; i < 16 && !r.cores[0].Locks().Broken(txn); i++ {
		r.clk.Advance(ttl / 4)
	}
	if !r.cores[0].Locks().Broken(txn) {
		t.Fatalf("txn %d not broken four leases after its renewals stopped", txn)
	}
}

// overFS sets cfg's inner handler to an rpcfs server over c.
func overFS(c *core.Cluster, cfg ServiceConfig) ServiceConfig {
	cfg.InnerCtx = (&rpcfs.Server{Files: c.Files, Naming: c.Naming}).HandlerCtx()
	return cfg
}

// endpointOf serves svc the way a node does.
func endpointOf(svc *Service) *rpc.Endpoint {
	return rpc.NewEndpoint(svc.HandleRequestCtx)
}

// newRig builds the cluster with no recorder.
func newRig(t *testing.T, shards int, leaseTTL time.Duration) *rig {
	t.Helper()
	return newObsRig(t, shards, leaseTTL, nil)
}

func (r *rig) router(t *testing.T, clientID uint64) *Router {
	t.Helper()
	rt, err := NewRouter(RouterConfig{Endpoints: r.m.Endpoints, ClientID: clientID})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	return rt
}

func TestRouterFileOpsAcrossShards(t *testing.T) {
	r := newRig(t, 3, 0)
	rt := r.router(t, 100)
	m, err := agent.NewMachine(agent.MachineConfig{Naming: rt, Files: rt})
	if err != nil {
		t.Fatal(err)
	}
	p := m.NewProcess()
	fa := m.FileAgent()

	// Spread files over enough directories to land on every shard.
	type file struct {
		path string
		fd   int
		data []byte
	}
	var files []file
	shardsHit := make(map[int]bool)
	for i := 0; i < 12; i++ {
		path := fmt.Sprintf("/dir%d/f", i)
		fd, err := fa.Create(p, path, fit.Attributes{})
		if err != nil {
			t.Fatalf("Create %s: %v", path, err)
		}
		data := bytes.Repeat([]byte{byte('a' + i)}, 3000)
		if _, err := fa.PWrite(p, fd, 0, data); err != nil {
			t.Fatalf("PWrite %s: %v", path, err)
		}
		files = append(files, file{path, fd, data})
		shardsHit[ShardForPath(path, 3)] = true
	}
	if len(shardsHit) != 3 {
		t.Fatalf("test spread hit only shards %v", shardsHit)
	}
	for _, f := range files {
		got, err := fa.PRead(p, f.fd, 0, len(f.data))
		if err != nil || !bytes.Equal(got, f.data) {
			t.Fatalf("PRead %s mismatch: %v", f.path, err)
		}
		if err := fa.Close(p, f.fd); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen by name (routes through ResolvePath + routed ID).
	fd, err := fa.Open(p, files[0].path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fa.PRead(p, fd, 0, 10)
	if err != nil || !bytes.Equal(got, files[0].data[:10]) {
		t.Fatalf("reopened read mismatch: %v", err)
	}
	if err := fa.Close(p, fd); err != nil {
		t.Fatal(err)
	}
	// Delete spans naming and file service on the home shard.
	if err := fa.Delete(files[1].path); err != nil {
		t.Fatal(err)
	}
	if _, err := fa.Open(p, files[1].path); err == nil {
		t.Fatal("deleted file still resolvable")
	}
	// List fans out and merges: every /dirN shows up at the root.
	names, err := rt.List("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 11 { // 12 created, 1 deleted
		t.Fatalf("List / = %d names: %v", len(names), names)
	}
}

func TestServerRedirectsForeignPath(t *testing.T) {
	r := newRig(t, 3, 0)
	// Find a path homed on shard 1 and offer it to shard 0 directly.
	var path string
	for i := 0; ; i++ {
		path = fmt.Sprintf("/redir%d/f", i)
		if ShardForPath(path, 3) == 1 {
			break
		}
	}
	tr, err := rpc.DialTCP(r.m.Endpoints[0])
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cl := &rpcfs.Client{C: rpc.NewClient(tr, 200, 5, nil)}
	_, err = cl.CreatePath(fit.Attributes{}, path)
	home, ok := ParseNotMine(err)
	if !ok || home != 1 {
		t.Fatalf("foreign create: err=%v home=%d ok=%v, want redirect to 1", err, home, ok)
	}
	// The router lands it on the right shard even with a scrambled notion
	// of shard homes (simulated by calling the home shard's redirect).
	rt := r.router(t, 201)
	if _, err := rt.CreatePath(fit.Attributes{}, path); err != nil {
		t.Fatalf("router create: %v", err)
	}
	if _, err := rt.ResolvePath(path); err != nil {
		t.Fatalf("router resolve: %v", err)
	}
}

func TestRouterResolveQueryFansOut(t *testing.T) {
	r := newRig(t, 3, 0)
	rt := r.router(t, 300)
	id, err := rt.CreatePath(fit.Attributes{}, "/fan/alpha")
	if err != nil {
		t.Fatal(err)
	}
	e, err := rt.Resolve(map[string]string{"path": "/fan/alpha", "type": "FILE"})
	if err != nil || e.SystemName != uint64(id) {
		t.Fatalf("Resolve by path = %+v, %v", e, err)
	}
	// A pathless query must fan out and still find exactly one match.
	e, err = rt.Resolve(map[string]string{"type": "FILE"})
	if err != nil || e.SystemName != uint64(id) {
		t.Fatalf("pathless Resolve = %+v, %v", e, err)
	}
	if _, err := rt.Resolve(map[string]string{"type": "NOPE"}); err == nil {
		t.Fatal("no-match query resolved")
	}
}

func TestNetworkLockLeaseExpiry(t *testing.T) {
	const ttl = 60 * time.Millisecond
	r := newRig(t, 1, ttl)
	rt := r.router(t, 400)

	lc1 := NewLockClient(rt.Lock(0), 401, ttl, r.clk, nil)
	defer lc1.Close()
	lc2 := NewLockClient(rt.Lock(0), 402, ttl, r.clk, nil)
	defer lc2.Close()

	item := lock.ItemID{File: 1, Offset: 0, Length: 100}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Txn 1 takes a write lock; txn 2's conflicting acquire is denied and
	// parks on its backoff (the sweep and two renewal loops are the other
	// three timers).
	if err := lc1.Acquire(ctx, 1, 1, lock.Record, item, lock.IWrite); err != nil {
		t.Fatal(err)
	}
	short, cancelShort := context.WithCancel(ctx)
	denied := make(chan error, 1)
	go func() { denied <- lc2.Acquire(short, 2, 2, lock.Record, item, lock.IWrite) }()
	r.clk.WaitTimers(4)
	cancelShort()
	if err := polltest.Recv(t, denied, "the cancelled acquire"); err == nil {
		t.Fatal("conflicting acquire granted while lease held")
	}

	// Client 1 goes silent: its lease expires, the sweeper breaks txn 1,
	// and txn 2's acquire proceeds.
	lc1.Close()
	r.expire(t, ttl, 1)
	if err := lc2.Acquire(ctx, 2, 2, lock.Record, item, lock.IWrite); err != nil {
		t.Fatalf("acquire after lease expiry: %v", err)
	}
	if err := lc2.Release(2); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkLockPartitionedRenewals(t *testing.T) {
	const ttl = 60 * time.Millisecond
	r := newRig(t, 1, ttl)
	rt := r.router(t, 500)

	inj := fault.NewInjector(1)
	lc1 := NewLockClient(rt.Lock(0), 501, ttl, r.clk, inj)
	defer lc1.Close()
	lc2 := NewLockClient(rt.Lock(0), 502, ttl, r.clk, nil)
	defer lc2.Close()

	item := lock.ItemID{File: 2, Offset: 0, Length: 10}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := lc1.Acquire(ctx, 10, 1, lock.Record, item, lock.IWrite); err != nil {
		t.Fatal(err)
	}
	// Partition client 1: every renewal from now on is dropped on the
	// floor, so the server sees silence and breaks the lease.
	inj.Arm(PtLeaseRenew, fault.Action{Kind: fault.KindError, Times: -1})
	r.expire(t, ttl, 10)
	if err := lc2.Acquire(ctx, 11, 2, lock.Record, item, lock.IWrite); err != nil {
		t.Fatalf("acquire after partition: %v", err)
	}
	if got := inj.Fired(PtLeaseRenew); got != 3 {
		t.Fatalf("%d renewals dropped before the break, want 3 (at ttl/3, 2ttl/3, ttl)", got)
	}
}

// TestNewServiceRequiresTheContextLink pins which inner handler NewService
// insists on: InnerCtx, the one it calls. The context-free Inner is inert —
// present or absent, it neither satisfies nor fails the check.
func TestNewServiceRequiresTheContextLink(t *testing.T) {
	c, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	m := Map{Version: 1, Endpoints: []string{"127.0.0.1:1"}}

	svc, err := NewService(overFS(c, ServiceConfig{Map: m}))
	if err != nil {
		t.Fatalf("InnerCtx set, Inner nil: %v", err)
	}
	svc.Close()

	inert := func(string, []byte) ([]byte, error) { return nil, nil }
	if _, err := NewService(ServiceConfig{Map: m, Inner: inert}); err == nil {
		t.Fatal("Inner set, InnerCtx nil: accepted")
	}
}
