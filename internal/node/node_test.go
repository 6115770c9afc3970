package node

import (
	"bytes"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/metrics"
	"repro/internal/polltest"
	"repro/internal/rpc"
	"repro/internal/rpcfs"
	"repro/internal/simclock"
)

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// startSolo boots an unreplicated one-shard node.
func startSolo(t *testing.T) *Node {
	t.Helper()
	ln := listen(t)
	n, err := Start(Config{
		Map:      cluster.Map{Version: 1, Endpoints: []string{ln.Addr().String()}},
		Listener: ln,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

func dial(t *testing.T, cfg ClientConfig) *Client {
	t.Helper()
	cl, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	return cl
}

// tap records the last request a client sent and the reply it got, so a test
// can retransmit the very same (client, seq) frame later.
type tap struct {
	rpc.Transport
	req  rpc.Request
	resp rpc.Response
}

func (t *tap) Send(req rpc.Request) (rpc.Response, error) {
	resp, err := t.Transport.Send(req)
	t.req, t.resp = req, resp
	t.req.Body = append([]byte(nil), req.Body...)
	t.resp.Body = append([]byte(nil), resp.Body...)
	return resp, err
}

// tappedCreate creates path on the server at addr through a tapped
// connection and returns the raw file ID with the recorded exchange.
func tappedCreate(t *testing.T, addr, path string) (fileservice.FileID, *tap) {
	t.Helper()
	tr, err := rpc.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	tp := &tap{Transport: tr}
	t.Cleanup(func() { _ = tr.Close() })
	id, err := (&rpcfs.Client{C: rpc.NewClient(tp, 77, 3, nil)}).CreatePath(fit.Attributes{}, path)
	if err != nil {
		t.Fatal(err)
	}
	return id, tp
}

// retransmit sends the tapped create again, as a client that never saw the
// reply would, and requires the recorded reply back from the duplicate cache
// of the node now serving addr — not a second execution.
func retransmit(t *testing.T, tp *tap, addr string, serving *Node) {
	t.Helper()
	tr, err := rpc.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	dups := serving.Facility.Metrics.Get(metrics.RPCDuplicates)
	resp, err := tr.Send(tp.req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != "" || !bytes.Equal(resp.Body, tp.resp.Body) {
		t.Fatalf("retransmitted create answered (%q, %x), want the original reply %x", resp.Err, resp.Body, tp.resp.Body)
	}
	if got := serving.Facility.Metrics.Get(metrics.RPCDuplicates) - dups; got != 1 {
		t.Fatalf("retransmission counted %d duplicate(s), want 1", got)
	}
}

// TestRecallReachesDialedCache: a recall pushed by the node's lease manager
// lands in the sink Dial wired, so a cached reader sees another client's
// overwrite on its very next read instead of serving its lease out.
func TestRecallReachesDialedCache(t *testing.T) {
	n := startSolo(t)
	a := dial(t, ClientConfig{Endpoints: []string{n.Addr()}, ClientID: 1, Cache: true})
	b := dial(t, ClientConfig{Endpoints: []string{n.Addr()}, ClientID: 2, Cache: true})

	id, err := a.Router.CreatePath(fit.Attributes{}, "/shared/f")
	if err != nil {
		t.Fatal(err)
	}
	write := func(data []byte) {
		t.Helper()
		if _, err := a.Files.WriteAt(id, 0, data); err != nil {
			t.Fatal(err)
		}
		if err := a.Cache.FlushFile(id); err != nil {
			t.Fatal(err)
		}
	}
	first, second := []byte("first bytes"), []byte("SECOND ONES")
	write(first)
	if got, err := b.Files.ReadAt(id, 0, len(first)); err != nil || !bytes.Equal(got, first) {
		t.Fatalf("B's first read = %q, %v", got, err)
	}
	write(second)
	if got, err := b.Files.ReadAt(id, 0, len(second)); err != nil || !bytes.Equal(got, second) {
		t.Fatalf("B's read after A's overwrite = %q, %v; want %q", got, err, second)
	}
}

// TestFailoverPair: bytes written through a primary survive its death on
// the promoted backup, and a create the primary executed is answered there
// from the duplicate cache the replication stream seeded.
func TestFailoverPair(t *testing.T) {
	const replTTL = 100 * time.Millisecond
	pLn, bLn := listen(t), listen(t)
	m := cluster.Map{Version: 1, Endpoints: []string{pLn.Addr().String()}, Backups: []string{bLn.Addr().String()}}
	clk := simclock.New() // the backup's watchdog runs on it
	backup, err := Start(Config{Facility: core.Config{Clock: clk}, Map: m, Role: cluster.RoleBackup, ReplTTL: replTTL, Listener: bLn})
	if err != nil {
		t.Fatal(err)
	}
	defer backup.Close()
	primary, err := Start(Config{Map: m, Role: cluster.RolePrimary, ReplTTL: replTTL, Listener: pLn})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()

	id, tp := tappedCreate(t, primary.Addr(), "/pair/f")
	cl := dial(t, ClientConfig{Endpoints: m.Endpoints, Backups: m.Backups, ClientID: 1, Retries: 25})
	data := bytes.Repeat([]byte("replicated "), 500)
	if _, err := cl.Files.WriteAt(id, 0, data); err != nil {
		t.Fatal(err)
	}

	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * replTTL) // the watchdog ticks past a full TTL of silence
	if got := backup.Service.Role(); got != cluster.RolePrimary {
		t.Fatalf("backup never promoted (role %v)", got)
	}
	if got, err := cl.Files.ReadAt(id, 0, len(data)); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read through the promoted backup: %d bytes, %v", len(got), err)
	}
	retransmit(t, tp, backup.Addr(), backup)
	if names, err := cl.Router.List("/pair"); err != nil || len(names) != 1 {
		t.Fatalf("/pair lists %v, %v; want the one created name", names, err)
	}
}

// TestReplicatedWriteWaitsForItsShip pins the one rule that acknowledges a
// replicated mutation: the primary answers a write only once the backup has
// confirmed that write's own ship, so a stalled ship stalls the reply and the
// backup holds the bytes by the time the call returns. Once the stream is
// severed the primary serves solo and answers without waiting on any ship.
func TestReplicatedWriteWaitsForItsShip(t *testing.T) {
	const stall = 150 * time.Millisecond
	inj := fault.NewInjector(1)
	pLn, bLn := listen(t), listen(t)
	m := cluster.Map{Version: 1, Endpoints: []string{pLn.Addr().String()}, Backups: []string{bLn.Addr().String()}}
	backup, err := Start(Config{Map: m, Role: cluster.RoleBackup, Listener: bLn})
	if err != nil {
		t.Fatal(err)
	}
	defer backup.Close()
	primary, err := Start(Config{Map: m, Role: cluster.RolePrimary, Fault: inj, Listener: pLn})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	cl := dial(t, ClientConfig{Endpoints: m.Endpoints, Backups: m.Backups, ClientID: 1})
	id, err := cl.Router.CreatePath(fit.Attributes{}, "/ack/f")
	if err != nil {
		t.Fatal(err)
	}
	write := func(data []byte) time.Duration {
		t.Helper()
		t0 := time.Now()
		if _, err := cl.Files.WriteAt(id, 0, data); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}

	replicated := bytes.Repeat([]byte("on the backup before the ack "), 100)
	inj.Arm(cluster.PtReplShip, fault.Action{Kind: fault.KindDelay, Delay: stall})
	if took := write(replicated); took < stall {
		t.Fatalf("write acknowledged after %v with its ship stalled %v", took, stall)
	}
	if got, err := backup.Facility.Files.ReadAt(id, 0, len(replicated)); err != nil || !bytes.Equal(got, replicated) {
		t.Fatalf("backup holds %d matching bytes (%v) when the write returns; want all %d", len(got), err, len(replicated))
	}

	// Sever the stream: this write's ship fails and the primary drops its
	// backup from the map.
	inj.Arm(cluster.PtReplShip, fault.Action{Kind: fault.KindError})
	write([]byte("severs the stream"))
	polltest.Until(t, "the primary to drop its backup after a failed ship",
		func() bool { return primary.Service.Map().Backup(0) == "" })
	inj.Arm(cluster.PtReplShip, fault.Action{Kind: fault.KindDelay, Delay: stall, Times: -1})
	solo := []byte("acknowledged solo")
	if took := write(solo); took >= stall {
		t.Fatalf("solo write took %v: it waited on a ship", took)
	}
	if got, err := backup.Facility.Files.ReadAt(id, 0, len(solo)); err != nil || bytes.Equal(got, solo) {
		t.Fatalf("backup holds %q, %v: a solo write reached it", got, err)
	}
}

// TestKillRestart: the endpoint — and with it the duplicate cache — outlives
// the TCP server, and a facility that crashed and recovered while the node
// was down is served from its rebuilt services.
func TestKillRestart(t *testing.T) {
	n := startSolo(t)
	id, tp := tappedCreate(t, n.Addr(), "/kr/f")
	cl := dial(t, ClientConfig{Endpoints: []string{n.Addr()}, ClientID: 1, Retries: 3})
	data := bytes.Repeat([]byte{0xC3}, 3*4096)
	if _, err := cl.Files.WriteAt(id, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := n.Facility.Flush(); err != nil {
		t.Fatal(err)
	}

	n.Kill()
	if _, err := cl.Files.Size(id); err == nil {
		t.Fatal("a killed node answered")
	}
	if err := n.Restart(); err != nil {
		t.Fatal(err)
	}
	retransmit(t, tp, n.Addr(), n)

	n.Kill()
	before := n.Facility.Files
	if err := n.Facility.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Facility.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := n.Restart(); err != nil {
		t.Fatal(err)
	}
	if n.fs.Files == before || n.fs.Files != n.Facility.Files {
		t.Fatal("restart did not re-bind rpcfs to the recovered file service")
	}
	if got, err := cl.Files.ReadAt(id, 0, len(data)); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read through the recovered node: %d bytes, %v", len(got), err)
	}
	// A write lands in the service the facility now owns.
	if _, err := cl.Files.WriteAt(id, 0, []byte("post-recovery")); err != nil {
		t.Fatal(err)
	}
	if got, err := n.Facility.Files.ReadAt(id, 0, 13); err != nil || string(got) != "post-recovery" {
		t.Fatalf("facility sees %q, %v after a write through the restarted node", got, err)
	}
	if err := n.Restart(); err == nil {
		t.Fatal("restart of a serving node succeeded")
	}
}

// TestCloseReleasesEverything: Close is idempotent, frees the port, and
// leaves no goroutine of the node's behind.
func TestCloseReleasesEverything(t *testing.T) {
	before := runtime.NumGoroutine()
	ln := listen(t)
	n, err := Start(Config{
		Facility: core.Config{Disks: 2},
		Map:      cluster.Map{Version: 1, Endpoints: []string{ln.Addr().String()}},
		Listener: ln,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(ClientConfig{Endpoints: []string{n.Addr()}, ClientID: 1, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	id, err := cl.Router.CreatePath(fit.Attributes{}, "/close/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Files.WriteAt(id, 0, []byte("dirty until close")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	first := n.Close()
	if first != nil {
		t.Fatalf("close: %v", first)
	}
	if again := n.Close(); again != first {
		t.Fatalf("second close returned %v, first %v", again, first)
	}
	if err := n.Restart(); err == nil {
		t.Fatal("restart after close succeeded")
	}
	again, err := net.Listen("tcp", n.Addr())
	if err != nil {
		t.Fatalf("port not released: %v", err)
	}
	_ = again.Close()
	if !polltest.Eventually(func() bool { return runtime.NumGoroutine() <= before }) {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before Start, %d after Close:\n%s",
			before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
	}
}

// smallFileCycle runs the small-file life cycle through fa: create, write
// 1 KiB, close, open, read it back, close, delete. after, when not nil, runs
// after the steps that change the file's open count or existence.
func smallFileCycle(t *testing.T, fa *agent.FileAgent, p *agent.Process, path string, after func(step string)) {
	t.Helper()
	if after == nil {
		after = func(string) {}
	}
	data := bytes.Repeat([]byte{0x5A}, 1024)
	fd, err := fa.Create(p, path, fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	after("create")
	if _, err := fa.PWrite(p, fd, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := fa.Close(p, fd); err != nil {
		t.Fatal(err)
	}
	after("close")
	if fd, err = fa.Open(p, path); err != nil {
		t.Fatal(err)
	}
	if got, err := fa.PRead(p, fd, 0, len(data)); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back %d bytes, %v", len(got), err)
	}
	if err := fa.Close(p, fd); err != nil {
		t.Fatal(err)
	}
	if err := fa.Delete(path); err != nil {
		t.Fatal(err)
	}
	after("delete")
}

// newAgent builds a machine over cl and returns its file agent and a process.
func newAgent(t *testing.T, cl *Client) (*agent.FileAgent, *agent.Process) {
	t.Helper()
	m, err := cl.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	return m.FileAgent(), m.NewProcess()
}

// TestSmallFileCycleRequestBudget pins the request count of the small-file
// life cycle through an uncached dialed agent: create (one message that also
// opens), write, close, open (resolve + open), read, close, delete (resolve +
// delete) — nine. A create that needs its own open makes it ten.
func TestSmallFileCycleRequestBudget(t *testing.T) {
	n := startSolo(t)
	fa, p := newAgent(t, dial(t, ClientConfig{Endpoints: []string{n.Addr()}, ClientID: 1}))
	before := n.Facility.Metrics.Get(metrics.RPCRequests)
	smallFileCycle(t, fa, p, "/budget/f", nil)
	if got := n.Facility.Metrics.Get(metrics.RPCRequests) - before; got != 9 {
		t.Fatalf("small-file cycle sent %d requests, want 9", got)
	}
}

// TestOpenedCreateReplicates: the create that hands the file back open ships
// its open with it, so the backup's copy is open exactly while the client's
// is, and the cycle's replicated delete finds it with no opener.
func TestOpenedCreateReplicates(t *testing.T) {
	pLn, bLn := listen(t), listen(t)
	m := cluster.Map{Version: 1, Endpoints: []string{pLn.Addr().String()}, Backups: []string{bLn.Addr().String()}}
	backup, err := Start(Config{Map: m, Role: cluster.RoleBackup, Listener: bLn})
	if err != nil {
		t.Fatal(err)
	}
	defer backup.Close()
	primary, err := Start(Config{Map: m, Role: cluster.RolePrimary, Listener: pLn})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	fa, p := newAgent(t, dial(t, ClientConfig{Endpoints: m.Endpoints, Backups: m.Backups, ClientID: 1}))
	const path = "/pair/cycle"
	var id fileservice.FileID
	want := map[string]uint32{"create": 1, "close": 0}
	smallFileCycle(t, fa, p, path, func(step string) {
		if step == "create" {
			e, err := backup.Facility.Naming.ResolvePath(path)
			if err != nil {
				t.Fatalf("the created name does not resolve on the backup: %v", err)
			}
			id = fileservice.FileID(e.SystemName)
		}
		if step == "delete" {
			if _, err := backup.Facility.Files.Attributes(id); err == nil {
				t.Fatal("the backup still holds the deleted file")
			}
			if _, err := backup.Facility.Naming.ResolvePath(path); err == nil {
				t.Fatal("the deleted name still resolves on the backup")
			}
			return
		}
		attr, err := backup.Facility.Files.Attributes(id)
		if err != nil || attr.RefCount != want[step] {
			t.Fatalf("after %s the backup's copy has RefCount %d (err %v), want %d", step, attr.RefCount, err, want[step])
		}
	})
}
