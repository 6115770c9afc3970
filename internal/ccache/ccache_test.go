package ccache_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/ccache"
	"repro/internal/core"
	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/obs"
	"repro/internal/polltest"
	"repro/internal/rpc"
	"repro/internal/rpcfs"
	"repro/internal/simclock"
)

// TestCodecRoundTrips pins the lease protocol's wire layouts.
func TestCodecRoundTrips(t *testing.T) {
	f, cl, mode := uint64(0xdeadbeef), uint64(42), ccache.ModeWrite
	gotF, gotC, gotM, err := ccache.DecodeAcquireArgs(ccache.AppendAcquireArgs(nil, f, cl, mode))
	if err != nil || gotF != f || gotC != cl || gotM != mode {
		t.Fatalf("acquire round trip = %#x %d %d, %v", gotF, gotC, gotM, err)
	}
	g := ccache.Grant{Ver: 7, Size: 123456, TTL: 1500 * time.Millisecond}
	gotG, err := ccache.DecodeGrant(ccache.AppendGrant(nil, g))
	if err != nil || gotG != g {
		t.Fatalf("grant round trip = %+v, %v", gotG, err)
	}
	gotF, gotC, err = ccache.DecodeLeaseIDArgs(ccache.AppendLeaseIDArgs(nil, f, cl))
	if err != nil || gotF != f || gotC != cl {
		t.Fatalf("lease-id round trip = %#x %d, %v", gotF, gotC, err)
	}
	gotF, ver, err := ccache.DecodeRecall(ccache.AppendRecall(nil, f, 9))
	if err != nil || gotF != f || ver != 9 {
		t.Fatalf("recall round trip = %#x %d, %v", gotF, ver, err)
	}
	if _, _, _, err := ccache.DecodeAcquireArgs([]byte{1, 2}); err == nil {
		t.Fatal("short acquire args decoded")
	}
	if _, err := ccache.DecodeGrant(nil); err == nil {
		t.Fatal("empty grant decoded")
	}
}

func TestBusyAndLeaseMethodPredicates(t *testing.T) {
	busy := rpc.Transient(fmt.Errorf("%s: file %#x", ccache.BusyMarker, 1))
	if !ccache.IsBusy(busy) || ccache.IsBusy(nil) || ccache.IsBusy(fmt.Errorf("other")) {
		t.Fatal("ccache.IsBusy misclassifies")
	}
}

// TestMetricNamesAudit pins the metric namespace: every name the package
// records is registered, prefixed, and unique.
func TestMetricNamesAudit(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range ccache.MetricNames {
		if !strings.HasPrefix(name, "ccache.") {
			t.Errorf("metric %q outside the ccache. namespace", name)
		}
		if seen[name] {
			t.Errorf("metric %q registered twice", name)
		}
		seen[name] = true
	}
	if len(ccache.MetricNames) != 9 {
		t.Fatalf("ccache.MetricNames has %d entries, want 9 — update the audit with the new metric", len(ccache.MetricNames))
	}
}

// rig is a loopback file server wrapped by a lease manager.
type rig struct {
	t     *testing.T
	core  *core.Cluster
	srv   *ccache.Server
	addr  string
	reads atomic.Int64      // fs.readAt RPCs that reached the file service
	clk   *simclock.Virtual // nil for real time
	srec  *obs.Recorder
}

func newRig(t *testing.T, clk *simclock.Virtual) *rig {
	t.Helper()
	c, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	r := &rig{t: t, core: c, clk: clk}
	fsrv := &rpcfs.Server{Files: c.Files, Naming: c.Naming}
	inner := fsrv.HandlerCtx()
	counted := func(ctx context.Context, method string, body []byte) ([]byte, error) {
		if method == rpcfs.MReadAt {
			r.reads.Add(1)
		}
		return inner(ctx, method, body)
	}
	r.srec = obs.New()
	scfg := ccache.ServerConfig{
		Inner: counted,
		Size:  func(file uint64) (int64, error) { return c.Files.Size(fileservice.FileID(file)) },
		Obs:   r.srec,
	}
	if clk != nil {
		scfg.Now = clk
	}
	srv, err := ccache.NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	r.srv = srv
	ep := rpc.NewEndpoint(func(ctx context.Context, req rpc.Request) ([]byte, error) {
		return srv.HandlerCtx(ctx, req.Method, req.Body)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tsrv := rpc.Serve(ln, ep)
	t.Cleanup(func() { _ = tsrv.Close() })
	r.addr = ln.Addr().String()
	return r
}

// client dials one cached client: push handler wired to Recall, conn-down
// to DropLeases, lease transport direct over the same connection.
// wrap, if given, stands between the cache and that transport.
func (r *rig) client(id uint64, wrap ...func(ccache.LeaseTransport) ccache.LeaseTransport) (*ccache.Client, *obs.Recorder) {
	r.t.Helper()
	var ccp atomic.Pointer[ccache.Client]
	tr, err := rpc.DialTCP(r.addr,
		rpc.WithPushHandler(func(method string, body []byte) {
			if method != ccache.MRecall {
				return
			}
			file, ver, err := ccache.DecodeRecall(body)
			if err != nil {
				return
			}
			ccp.Load().Recall(fileservice.FileID(file), ver)
		}),
		rpc.WithConnDown(func(error) { ccp.Load().DropLeases(nil) }))
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(func() { _ = tr.Close() })
	rcl := rpc.NewClient(tr, id, 8, nil)
	rec := obs.New()
	var lease ccache.LeaseTransport = &ccache.DirectLease{C: rcl}
	for _, w := range wrap {
		lease = w(lease)
	}
	cfg := ccache.Config{
		Inner:    &rpcfs.Client{C: rcl},
		Lease:    lease,
		ClientID: id,
		Obs:      rec,
	}
	if r.clk != nil {
		cfg.Now = r.clk
	}
	cc, err := ccache.New(cfg)
	if err != nil {
		r.t.Fatal(err)
	}
	ccp.Store(cc)
	return cc, rec
}

func (r *rig) create(path string) fileservice.FileID {
	r.t.Helper()
	id, err := r.core.Files.Create(fit.Attributes{})
	if err != nil {
		r.t.Fatal(err)
	}
	_ = path
	return id
}

// TestCachedReReadBypassesServer is the core promise: after the first
// read faults blocks in, re-reads are served locally — zero read RPCs.
func TestCachedReReadBypassesServer(t *testing.T) {
	r := newRig(t, nil)
	ccA, _ := r.client(101)
	ccB, recB := r.client(102)
	id := r.create("/cc/hot")

	want := bytes.Repeat([]byte("hotspot-"), 4096) // 4 blocks
	if _, err := ccA.WriteAt(id, 0, want); err != nil {
		t.Fatal(err)
	}
	if err := ccA.Flush(); err != nil {
		t.Fatal(err)
	}

	got, err := ccB.ReadAt(id, 0, len(want))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("first read: %v (len %d)", err, len(got))
	}
	before := r.reads.Load()
	for i := 0; i < 10; i++ {
		got, err = ccB.ReadAt(id, 0, len(want))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("re-read %d: %v", i, err)
		}
	}
	if after := r.reads.Load(); after != before {
		t.Fatalf("re-reads issued %d read RPCs, want 0", after-before)
	}
	if hits := recB.Gauge(ccache.MetricHits).Value(); hits < 10 {
		t.Fatalf("ccache.hits = %d, want >= 10", hits)
	}
	// Size is served from the lease too.
	if size, err := ccB.Size(id); err != nil || size != int64(len(want)) {
		t.Fatalf("Size = %d, %v", size, err)
	}
}

// TestWriteBackOnRecall: a reader's lease acquisition forces the writer
// to flush its delayed writes first, so the reader sees them.
func TestWriteBackOnRecall(t *testing.T) {
	r := newRig(t, nil)
	ccW, _ := r.client(201)
	ccR, recR := r.client(202)
	id := r.create("/cc/shared")

	want := bytes.Repeat([]byte("delayed!"), 3000)
	if _, err := ccW.WriteAt(id, 0, want); err != nil {
		t.Fatal(err)
	}
	if ccW.DirtyBlocks() == 0 {
		t.Fatal("write was not buffered")
	}
	got, err := ccR.ReadAt(id, 0, len(want))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("reader missed delayed writes: %v", err)
	}
	if ccW.DirtyBlocks() != 0 {
		t.Fatalf("writer still has %d dirty blocks after recall", ccW.DirtyBlocks())
	}
	// The reader's data had to come over the wire, not from a stale cache.
	if recR.Gauge(ccache.MetricMisses).Value() == 0 {
		t.Fatal("reader reported no miss")
	}
}

// TestRecallStorm: one writer invalidates many readers; every reader's
// next read observes the new data.
func TestRecallStorm(t *testing.T) {
	r := newRig(t, nil)
	const nReaders = 6
	id := r.create("/cc/storm")

	seed := bytes.Repeat([]byte("v0______"), 2048) // 2 blocks
	if _, err := r.core.Files.WriteAt(id, 0, seed); err != nil {
		t.Fatal(err)
	}
	readers := make([]*ccache.Client, nReaders)
	recs := make([]*obs.Recorder, nReaders)
	for i := range readers {
		readers[i], recs[i] = r.client(uint64(301 + i))
		got, err := readers[i].ReadAt(id, 0, len(seed))
		if err != nil || !bytes.Equal(got, seed) {
			t.Fatalf("reader %d seed read: %v", i, err)
		}
	}
	if n := r.srv.Holders(uint64(id)); n != nReaders {
		t.Fatalf("server tracks %d holders, want %d", n, nReaders)
	}

	ccW, _ := r.client(400)
	want := bytes.Repeat([]byte("v1!!!!!!"), 2048)
	if _, err := ccW.WriteAt(id, 0, want); err != nil {
		t.Fatal(err)
	}
	if err := ccW.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, rd := range readers {
		got, err := rd.ReadAt(id, 0, len(want))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("reader %d read stale data after recall: %v", i, err)
		}
		if recs[i].Gauge(ccache.MetricRecalls).Value() == 0 {
			t.Fatalf("reader %d never processed a recall push", i)
		}
	}
}

// TestConcurrentRecallReadStress races recalls against reads and writes
// on one file (run under -race). Invariants: no operation errors, and
// once the writer quiesces and flushes, every client converges on the
// final bytes.
func TestConcurrentRecallReadStress(t *testing.T) {
	r := newRig(t, nil)
	id := r.create("/cc/stress")
	region := 4 * ccache.BlockSize

	seed := bytes.Repeat([]byte{0xAA}, region)
	if _, err := r.core.Files.WriteAt(id, 0, seed); err != nil {
		t.Fatal(err)
	}

	const nReaders = 3
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, nReaders+1)

	ccW, _ := r.client(501)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		buf := make([]byte, region)
		for w := 1; w <= 4000; w++ {
			for i := range buf {
				buf[i] = byte(w)
			}
			if _, err := ccW.WriteAt(id, 0, buf); err != nil {
				errs <- fmt.Errorf("writer: %w", err)
				return
			}
		}
	}()
	for i := 0; i < nReaders; i++ {
		cc, _ := r.client(uint64(601 + i))
		wg.Add(1)
		go func(i int, cc *ccache.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				off := int64(rng.Intn(region))
				n := rng.Intn(region - int(off))
				if _, err := cc.ReadAt(id, off, n); err != nil {
					errs <- fmt.Errorf("reader %d: %w", i, err)
					return
				}
			}
		}(i, cc)
	}
	<-writerDone
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if err := ccW.Flush(); err != nil {
		t.Fatal(err)
	}
	// Convergence: a fresh client and the server agree on final content.
	final, err := r.core.Files.ReadAt(id, 0, region)
	if err != nil || len(final) != region {
		t.Fatalf("server final read: %d bytes, %v", len(final), err)
	}
	ccV, _ := r.client(700)
	got, err := ccV.ReadAt(id, 0, region)
	if err != nil || !bytes.Equal(got, final) {
		t.Fatalf("verifier diverged from server: %v", err)
	}
}

// TestServerSweepStopsOnClose pins that Close ends the lease sweep: a lease
// that lapsed on the server's clock after Close is still held, though the
// sweep would have run six times by then.
func TestServerSweepStopsOnClose(t *testing.T) {
	clk := simclock.New()
	r := newRig(t, clk)
	cc, _ := r.client(811)
	id := r.create("/cc/closed-sweep")
	if _, err := cc.ReadAt(id, 0, 1); err != nil {
		t.Fatal(err)
	}
	if n := r.srv.Holders(uint64(id)); n != 1 {
		t.Fatalf("holders = %d, want 1", n)
	}
	r.srv.Close()
	clk.Advance(ccache.DefaultTTL + time.Second)
	if n := r.srv.Holders(uint64(id)); n != 1 {
		t.Fatalf("holders = %d after Close, want 1: the sweep ran", n)
	}
	r.srv.SweepOnce()
	if n := r.srv.Holders(uint64(id)); n != 0 {
		t.Fatalf("holders = %d after one pass, want 0", n)
	}
}

// TestRecallWait: a write conflicting with a read lease whose holder never
// acknowledges the recall waits on the server's clock for DefaultRecallWait
// or, when the lease runs out first, until its expiry — not a moment less,
// and not until the next sweep — then breaks the lease and proceeds.
func TestRecallWait(t *testing.T) {
	// The lease is granted off the sweep's grid, and the write arrives
	// with less than DefaultRecallWait of it left in the second case.
	const off, left = ccache.DefaultTTL / 20, ccache.DefaultRecallWait / 2
	for _, tc := range []struct {
		name         string
		before, wait time.Duration
	}{
		{"EndsAtTheDeadline", 0, ccache.DefaultRecallWait},
		{"EndsWhenTheHolderLapses", ccache.DefaultTTL - left, left},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := simclock.New()
			r := newRig(t, clk)
			id := r.create("/cc/deaf")
			clk.Advance(off)
			tr, err := rpc.DialTCP(r.addr) // no push handler: recalls go unheard
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = tr.Close() })
			deaf := &ccache.DirectLease{C: rpc.NewClient(tr, 1101, 8, nil)}
			if _, err := deaf.AcquireLease(uint64(id), 1101, ccache.ModeRead); err != nil {
				t.Fatal(err)
			}
			clk.Advance(tc.before)
			writer, _ := r.client(1102)
			done := make(chan error, 1)
			go func() {
				_, err := writer.WriteAt(id, 0, []byte("conflicting"))
				done <- err
			}()
			clk.WaitTimers(2) // the sweep and the recall wait's wake-up
			clk.Advance(tc.wait - 1)
			select {
			case err := <-done:
				t.Fatalf("write returned (%v) before the recall wait ended", err)
			default:
			}
			clk.Advance(1)
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				clk.Advance(ccache.DefaultRecallWait) // release the write so the rig can close
				t.Fatal("write still waiting after the recall wait ended")
			}
			if got := r.srec.Gauge(ccache.MetricLeaseBroken).Value(); got != 1 || r.srv.Holders(uint64(id)) != 1 {
				t.Fatalf("%s = %d, holders %d; want the deaf lease broken and the writer's held", ccache.MetricLeaseBroken, got, r.srv.Holders(uint64(id)))
			}
		})
	}
}

// lateGrant returns each grant most of a lease late on the shared clock, as
// a stalled connection or a retry answered from the duplicate cache would.
type lateGrant struct {
	ccache.LeaseTransport
	clk *simclock.Virtual
}

func (l lateGrant) AcquireLease(file, client uint64, mode byte) (ccache.Grant, error) {
	g, err := l.LeaseTransport.AcquireLease(file, client, mode)
	l.clk.Advance(ccache.DefaultTTL * 9 / 10)
	return g, err
}

// TestLateGrantExpiresFromTheRequest: a lease runs from the request, not the
// grant's arrival. Past the server's expiry a conflicting write needs no
// recall, so a client trusting a late grant would serve overwritten bytes.
func TestLateGrantExpiresFromTheRequest(t *testing.T) {
	clk := simclock.New()
	r := newRig(t, clk)
	id := r.create("/cc/late")
	old := bytes.Repeat([]byte("old-data"), 512)
	if _, err := r.core.Files.WriteAt(id, 0, old); err != nil {
		t.Fatal(err)
	}
	ccA, _ := r.client(1001, func(lt ccache.LeaseTransport) ccache.LeaseTransport { return lateGrant{lt, clk} })
	ccB, _ := r.client(1002)
	if got, err := ccA.ReadAt(id, 0, len(old)); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("first read: %v", err)
	}
	// The server granted A's lease at 0 and it is now 0.9 TTL: step past
	// the server's expiry.
	clk.Advance(ccache.DefaultTTL / 5)
	fresh := bytes.Repeat([]byte("new-data"), 512)
	if _, err := ccB.WriteAt(id, 0, fresh); err != nil {
		t.Fatal(err)
	}
	if err := ccB.Shutdown(); err != nil { // flushes and releases the W lease
		t.Fatal(err)
	}
	if got, err := ccA.ReadAt(id, 0, len(fresh)); err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("read after the lease lapsed server-side returned stale bytes (%v)", err)
	}
}

// TestExpiredLeaseNeverServesStale pins the §6.4-style sweep semantics:
// a holder whose lease expired (clock, not callback) is dropped
// server-side without a recall, and its client — including after a
// reconnect-style DropLeases — refetches rather than serving stale bytes.
func TestExpiredLeaseNeverServesStale(t *testing.T) {
	clk := simclock.New()
	r := newRig(t, clk)
	cc1, _ := r.client(801)
	cc2, _ := r.client(802)
	id := r.create("/cc/stale")

	old := bytes.Repeat([]byte("old-data"), 1024)
	if _, err := r.core.Files.WriteAt(id, 0, old); err != nil {
		t.Fatal(err)
	}
	got, err := cc1.ReadAt(id, 0, len(old))
	if err != nil || !bytes.Equal(got, old) {
		t.Fatal("seed read failed")
	}
	if n := r.srv.Holders(uint64(id)); n != 1 {
		t.Fatalf("holders = %d, want 1", n)
	}

	// Let the lease lapse on both clocks; the sweeper path drops it
	// without any callback traffic.
	clk.Advance(ccache.DefaultTTL + time.Second)
	r.srv.SweepOnce()
	if n := r.srv.Holders(uint64(id)); n != 0 {
		t.Fatalf("holders after sweep = %d, want 0", n)
	}

	// A writer now changes the file and releases its lease (a held W lease
	// would send cc1's re-acquire into busy retries on the virtual clock);
	// cc1 was never recalled (its lease already expired), so only the
	// expiry check protects coherence.
	fresh := bytes.Repeat([]byte("new-data"), 1024)
	if _, err := cc2.WriteAt(id, 0, fresh); err != nil {
		t.Fatal(err)
	}
	if err := cc2.Shutdown(); err != nil {
		t.Fatal(err)
	}
	got, err = cc1.ReadAt(id, 0, len(fresh))
	if err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("expired client served stale data (err %v)", err)
	}

	// Reconnect flavor: revoke local state wholesale (the conn-down hook)
	// after another remote write, then read again.
	clk.Advance(ccache.DefaultTTL + time.Second)
	fresh2 := bytes.Repeat([]byte("newer!!!"), 1024)
	if _, err := cc2.WriteAt(id, 0, fresh2); err != nil {
		t.Fatal(err)
	}
	if err := cc2.Shutdown(); err != nil {
		t.Fatal(err)
	}
	cc1.DropLeases(nil)
	got, err = cc1.ReadAt(id, 0, len(fresh2))
	if err != nil || !bytes.Equal(got, fresh2) {
		t.Fatalf("reconnected client served stale data (err %v)", err)
	}
}

// TestLeaseBufferBalance gates buffer ownership on the lease RPC path
// and the recall push path: a churn of acquires, recalls, and releases
// must not grow the pooled-buffer ledger. Reads are avoided here because
// a read reply's buffer intentionally transfers to the caller (the rpcfs
// aliasing contract) — Size and WriteAt exercise the same lease and
// recall machinery with fully balanced buffers.
func TestLeaseBufferBalance(t *testing.T) {
	r := newRig(t, nil)
	ccA, recA := r.client(901)
	ccB, recB := r.client(902)
	id := r.create("/cc/balance")

	data := []byte("x")
	if _, err := ccA.WriteAt(id, 0, data); err != nil {
		t.Fatal(err)
	}
	gets0, puts0 := rpc.BufferBalance()
	for i := 0; i < 50; i++ {
		// A's buffered write needs the W lease back, recalling B; B's
		// size query needs an R lease, recalling A (flush + ack).
		if _, err := ccA.WriteAt(id, 0, data); err != nil {
			t.Fatal(err)
		}
		if _, err := ccB.Size(id); err != nil {
			t.Fatal(err)
		}
	}
	if recA.Gauge(ccache.MetricRecalls).Value() == 0 || recB.Gauge(ccache.MetricRecalls).Value() == 0 {
		t.Fatal("lease churn produced no recalls — the test lost its subject")
	}
	// The server worker recycles request bodies slightly after replies
	// land; give the ledger a moment to settle.
	polltest.Until(t, "the lease/recall path's pooled buffers to come back (at most 8 out)", func() bool {
		gets1, puts1 := rpc.BufferBalance()
		return (gets1-puts1)-(gets0-puts0) <= 8
	})
}

// TestLocalModeMirrorsFileService drives the cache in local mode (no
// lease transport) against one file while issuing the same operations
// uncached against a second, and requires identical observable state —
// the cache must be semantically invisible.
func TestLocalModeMirrorsFileService(t *testing.T) {
	c, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	cached, err := ccache.New(ccache.Config{Inner: c.Files})
	if err != nil {
		t.Fatal(err)
	}
	idC, err := c.Files.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	idP, err := c.Files.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}

	check := func(step string) {
		t.Helper()
		sizeC, err1 := cached.Size(idC)
		sizeP, err2 := c.Files.Size(idP)
		if err1 != nil || err2 != nil || sizeC != sizeP {
			t.Fatalf("%s: size %d vs %d (%v, %v)", step, sizeC, sizeP, err1, err2)
		}
		gotC, err1 := cached.ReadAt(idC, 0, int(sizeP)+100)
		gotP, err2 := c.Files.ReadAt(idP, 0, int(sizeP)+100)
		if err1 != nil || err2 != nil || !bytes.Equal(gotC, gotP) {
			t.Fatalf("%s: contents diverge (%v, %v): %d vs %d bytes", step, err1, err2, len(gotC), len(gotP))
		}
	}

	// Regression: aligned-offset write whose end falls mid-block must
	// preserve the existing tail bytes of that same block (RMW fetch).
	full := bytes.Repeat([]byte("tailtail"), ccache.BlockSize/8)
	if _, err := c.Files.WriteAt(idP, 0, full); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Files.WriteAt(idC, 0, full); err != nil {
		t.Fatal(err)
	}
	head := bytes.Repeat([]byte("H"), 100)
	if _, err := cached.WriteAt(idC, 0, head); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Files.WriteAt(idP, 0, head); err != nil {
		t.Fatal(err)
	}
	check("aligned-head RMW")

	rng := rand.New(rand.NewSource(7))
	span := int64(6 * ccache.BlockSize)
	for i := 0; i < 120; i++ {
		op := rng.Intn(10)
		off := rng.Int63n(span)
		n := rng.Intn(3*ccache.BlockSize) + 1
		switch {
		case op < 5: // write
			data := make([]byte, n)
			rng.Read(data)
			if _, err := cached.WriteAt(idC, off, data); err != nil {
				t.Fatalf("op %d cached write: %v", i, err)
			}
			if _, err := c.Files.WriteAt(idP, off, data); err != nil {
				t.Fatalf("op %d plain write: %v", i, err)
			}
		case op < 8: // read both and compare
			gotC, err1 := cached.ReadAt(idC, off, n)
			gotP, err2 := c.Files.ReadAt(idP, off, n)
			if err1 != nil || err2 != nil || !bytes.Equal(gotC, gotP) {
				t.Fatalf("op %d read diverges at off=%d n=%d (%v, %v)", i, off, n, err1, err2)
			}
		case op < 9: // truncate (shrink or grow)
			sz := rng.Int63n(span)
			if err := cached.Truncate(idC, sz); err != nil {
				t.Fatalf("op %d cached truncate: %v", i, err)
			}
			if err := c.Files.Truncate(idP, sz); err != nil {
				t.Fatalf("op %d plain truncate: %v", i, err)
			}
		default: // flush
			if err := cached.Flush(); err != nil {
				t.Fatalf("op %d flush: %v", i, err)
			}
		}
	}
	check("random ops")
	if err := cached.Flush(); err != nil {
		t.Fatal(err)
	}
	if cached.DirtyBlocks() != 0 {
		t.Fatalf("dirty blocks after flush: %d", cached.DirtyBlocks())
	}
	// After the flush the server-side twin file must equal the plain one.
	szP, _ := c.Files.Size(idP)
	gotC, err1 := c.Files.ReadAt(idC, 0, int(szP)+100)
	gotP, err2 := c.Files.ReadAt(idP, 0, int(szP)+100)
	if err1 != nil || err2 != nil || !bytes.Equal(gotC, gotP) {
		t.Fatalf("flushed state diverges (%v, %v)", err1, err2)
	}

	// Edge semantics must pass through identically.
	if _, err := cached.ReadAt(idC, -1, 4); err == nil {
		t.Fatal("negative offset read succeeded")
	}
	if out, err := cached.ReadAt(idC, 1<<40, 16); err != nil || out != nil {
		t.Fatalf("read past EOF = %v, %v (want nil, nil)", out, err)
	}
	if n, err := cached.WriteAt(idC, 0, nil); n != 0 || err != nil {
		t.Fatalf("empty write = %d, %v", n, err)
	}
}

// TestCloseFlushesAndReleases pins close-to-open consistency: Close
// write-backs dirty state and drops the lease, so a different client
// immediately reads the final bytes.
func TestCloseFlushesAndReleases(t *testing.T) {
	r := newRig(t, nil)
	ccA, _ := r.client(1001)
	ccB, _ := r.client(1002)
	id := r.create("/cc/close")

	want := bytes.Repeat([]byte("closing!"), 1024)
	if err := ccA.Open(id); err != nil {
		t.Fatal(err)
	}
	if _, err := ccA.WriteAt(id, 0, want); err != nil {
		t.Fatal(err)
	}
	if err := ccA.Close(id); err != nil {
		t.Fatal(err)
	}
	if n := r.srv.Holders(uint64(id)); n != 0 {
		t.Fatalf("holders after close = %d, want 0", n)
	}
	got, err := ccB.ReadAt(id, 0, len(want))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("close-to-open consistency broken: %v", err)
	}
}

// TestShutdownFlushesAndReleasesAll pins the graceful-exit path: Shutdown
// writes back every dirty block and hands every lease back, so a later
// client reads the data without paying a recall.
func TestShutdownFlushesAndReleasesAll(t *testing.T) {
	r := newRig(t, nil)
	ccA, _ := r.client(1051)
	ccB, _ := r.client(1052)
	idX := r.create("/cc/shutdown-x")
	idY := r.create("/cc/shutdown-y")

	wantX := bytes.Repeat([]byte("exiting!"), 1024)
	wantY := bytes.Repeat([]byte("goodbye."), 512)
	if _, err := ccA.WriteAt(idX, 0, wantX); err != nil {
		t.Fatal(err)
	}
	if _, err := ccA.WriteAt(idY, 0, wantY); err != nil {
		t.Fatal(err)
	}
	if _, err := ccA.ReadAt(idX, 0, 8); err != nil {
		t.Fatal(err)
	}
	if err := ccA.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []fileservice.FileID{idX, idY} {
		if n := r.srv.Holders(uint64(id)); n != 0 {
			t.Fatalf("holders on %d after shutdown = %d, want 0", id, n)
		}
	}
	if got, err := ccB.ReadAt(idX, 0, len(wantX)); err != nil || !bytes.Equal(got, wantX) {
		t.Fatalf("X after shutdown: %v", err)
	}
	if got, err := ccB.ReadAt(idY, 0, len(wantY)); err != nil || !bytes.Equal(got, wantY) {
		t.Fatalf("Y after shutdown: %v", err)
	}
}

// TestTruncateCoherent pins write-through truncate: local cache state is
// trimmed and other clients observe the truncation.
func TestTruncateCoherent(t *testing.T) {
	r := newRig(t, nil)
	ccA, _ := r.client(1101)
	ccB, _ := r.client(1102)
	id := r.create("/cc/trunc")

	data := bytes.Repeat([]byte("truncate"), 2048) // 2 blocks
	if _, err := ccA.WriteAt(id, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := ccA.Truncate(id, 100); err != nil {
		t.Fatal(err)
	}
	if size, err := ccA.Size(id); err != nil || size != 100 {
		t.Fatalf("A size after truncate = %d, %v", size, err)
	}
	got, err := ccB.ReadAt(id, 0, 1000)
	if err != nil || !bytes.Equal(got, data[:100]) {
		t.Fatalf("B after truncate: %d bytes, %v", len(got), err)
	}
	// Growth after shrink: the reclaimed range reads as zeros everywhere.
	if _, err := ccA.WriteAt(id, int64(ccache.BlockSize), []byte("far")); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, ccache.BlockSize+3)
	copy(want, data[:100])
	copy(want[ccache.BlockSize:], "far")
	gotA, err := ccA.ReadAt(id, 0, len(want))
	if err != nil || !bytes.Equal(gotA, want) {
		t.Fatalf("A hole read: %v", err)
	}
	if err := ccA.Flush(); err != nil {
		t.Fatal(err)
	}
	gotB, err := ccB.ReadAt(id, 0, len(want))
	if err != nil || !bytes.Equal(gotB, want) {
		t.Fatalf("B hole read: %v", err)
	}
}

// TestDirtyHighWater: nothing evicts a dirty block, so a writer that never
// closes must not grow without bound — at DefaultBlocks dirty blocks the next
// write puts its file back first. Both modes: the in-process machine's cache
// and a lease holder against a live server.
func TestDirtyHighWater(t *testing.T) {
	r := newRig(t, nil)
	local, err := ccache.New(ccache.Config{Inner: r.core.Files})
	if err != nil {
		t.Fatal(err)
	}
	leased, _ := r.client(1201)
	for name, cc := range map[string]*ccache.Client{"local": local, "leased": leased} {
		t.Run(name, func(t *testing.T) {
			id := r.create("/cc/highwater/" + name)
			const blocks = 2 * ccache.DefaultBlocks
			buf := make([]byte, ccache.BlockSize)
			stamp := func(blk int) []byte {
				for i := range buf {
					buf[i] = byte(blk + i)
				}
				buf[0], buf[1] = byte(blk), byte(blk>>8)
				return buf
			}
			for blk := 0; blk < blocks; blk++ {
				if _, err := cc.WriteAt(id, int64(blk)*ccache.BlockSize, stamp(blk)); err != nil {
					t.Fatalf("write of block %d: %v", blk, err)
				}
				if d := cc.DirtyBlocks(); d > ccache.DefaultBlocks {
					t.Fatalf("after block %d: %d dirty blocks, high-water mark is %d", blk, d, ccache.DefaultBlocks)
				}
			}
			if cc.DirtyBlocks() == 0 {
				t.Fatal("nothing left buffered: the high-water flush must not turn the cache write-through")
			}
			for blk := 0; blk < blocks; blk++ {
				got, err := cc.ReadAt(id, int64(blk)*ccache.BlockSize, ccache.BlockSize)
				if err != nil || !bytes.Equal(got, stamp(blk)) {
					t.Fatalf("block %d reads back wrong (%d bytes, %v)", blk, len(got), err)
				}
			}
		})
	}
}

// heldSize is a file service whose next Size call, once armed, takes its
// answer and then waits to deliver it.
type heldSize struct {
	agent.FileService
	armed   atomic.Bool
	asked   chan struct{}
	deliver chan struct{}
}

func (h *heldSize) Size(id fileservice.FileID) (int64, error) {
	size, err := h.FileService.Size(id)
	if h.armed.CompareAndSwap(true, false) {
		h.asked <- struct{}{}
		<-h.deliver
	}
	return size, err
}

// TestLocalSizeAnswerOlderThanOwnFlush: local mode asks the inner size
// outside its lock. If the answer was taken before this same cache flushed
// growth (and dropped the blocks), believing it would shrink the file under
// a second writer, whose partial-block write would then skip the
// read-modify-write fetch and put zeros over the flushed bytes.
func TestLocalSizeAnswerOlderThanOwnFlush(t *testing.T) {
	r := newRig(t, nil)
	inner := &heldSize{FileService: r.core.Files, asked: make(chan struct{}), deliver: make(chan struct{})}
	cc, err := ccache.New(ccache.Config{Inner: inner})
	if err != nil {
		t.Fatal(err)
	}
	id := r.create("/cc/heldsize")
	const bs = ccache.BlockSize
	if _, err := r.core.Files.WriteAt(id, 0, bytes.Repeat([]byte("s"), bs)); err != nil {
		t.Fatal(err)
	}

	// The second writer asks the size (one block) and is held there.
	inner.armed.Store(true)
	done := make(chan error, 1)
	go func() {
		_, err := cc.WriteAt(id, 2*bs+100, []byte("AAAA"))
		done <- err
	}()
	<-inner.asked
	// Meanwhile the first grows the file by two blocks, flushes, and its
	// clean blocks are dropped.
	if _, err := cc.WriteAt(id, bs, bytes.Repeat([]byte("B"), 2*bs)); err != nil {
		t.Fatal(err)
	}
	if err := cc.FlushFile(id); err != nil {
		t.Fatal(err)
	}
	cc.DropLeases(nil)
	close(inner.deliver)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := cc.Flush(); err != nil {
		t.Fatal(err)
	}

	want := bytes.Repeat([]byte("B"), bs)
	copy(want[100:], "AAAA")
	got, err := r.core.Files.ReadAt(id, 2*bs, bs)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("block 2 after both writers: %d bytes, first %q (err %v); the flushed growth was overwritten", len(got), got[:8], err)
	}
}
