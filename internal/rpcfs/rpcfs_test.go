package rpcfs_test

import (
	"bytes"
	"context"
	"net"
	"testing"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/rpcfs"
)

// newRemote builds a cluster served over loopback TCP and a connected
// client.
func newRemote(t *testing.T) (*core.Cluster, *rpcfs.Client) {
	t.Helper()
	c, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	srv := &rpcfs.Server{Files: c.Files, Naming: c.Naming}
	ep := endpointOf(srv, c.Metrics)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tsrv := rpc.Serve(ln, ep)
	t.Cleanup(func() { _ = tsrv.Close() })
	tr, err := rpc.DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	return c, &rpcfs.Client{C: rpc.NewClient(tr, 77, 5, c.Metrics)}
}

func TestRemoteFileOps(t *testing.T) {
	_, cl := newRemote(t)
	id, err := cl.CreatePath(fit.Attributes{}, "/remote/hello")
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("net"), 5000)
	n, err := cl.WriteAt(id, 0, want)
	if err != nil || n != len(want) {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	got, err := cl.ReadAt(id, 0, len(want))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("ReadAt mismatch: %v", err)
	}
	size, err := cl.Size(id)
	if err != nil || size != int64(len(want)) {
		t.Fatalf("Size = %d, %v", size, err)
	}
	attr, err := cl.Attributes(id)
	if err != nil || attr.Size != uint64(len(want)) {
		t.Fatalf("Attributes = %+v, %v", attr, err)
	}
	if err := cl.Truncate(id, 100); err != nil {
		t.Fatal(err)
	}
	size, err = cl.Size(id)
	if err != nil || size != 100 {
		t.Fatalf("Size after truncate = %d, %v", size, err)
	}
	// Naming round trip.
	e, err := cl.Resolve("/remote/hello")
	if err != nil || e.SystemName != uint64(id) {
		t.Fatalf("Resolve = %+v, %v", e, err)
	}
	names, err := cl.List("/remote")
	if err != nil || len(names) != 1 || names[0] != "hello" {
		t.Fatalf("List = %v, %v", names, err)
	}
	// Open/Close/Delete.
	if err := cl.Open(id); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(id); err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Resolve("/remote/hello"); !rpcfs.IsNotFound(err) {
		t.Fatalf("Resolve after delete = %v, want not-found", err)
	}
	if _, err := cl.ReadAt(id, 0, 1); !rpcfs.IsNotFound(err) {
		t.Fatalf("ReadAt after delete = %v, want not-found", err)
	}
}

func TestFileAgentOverRemoteService(t *testing.T) {
	// The file agent works unchanged over the RPC proxy — Fig. 1's agents
	// talking to a file service on another machine.
	c, cl := newRemote(t)
	m, err := agent.NewMachine(agent.MachineConfig{
		Naming: c.Naming, // shared naming (one facility)
		Files:  cl,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := m.NewProcess()
	fa := m.FileAgent()
	fd, err := fa.Create(p, "/agent/via/tcp", fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fa.Write(p, fd, []byte("over the wire")); err != nil {
		t.Fatal(err)
	}
	if err := fa.Close(p, fd); err != nil {
		t.Fatal(err)
	}
	// Verify server-side.
	e, err := c.Naming.ResolvePath("/agent/via/tcp")
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Files.ReadAt(fileservice.FileID(e.SystemName), 0, 13)
	if err != nil || string(got) != "over the wire" {
		t.Fatalf("server content = %q, %v", got, err)
	}
}

func TestUnknownMethod(t *testing.T) {
	_, cl := newRemote(t)
	if err := cl.Call(context.Background(), "bogus.method", rpcfs.Empty{}, nil); err == nil {
		t.Fatal("unknown method succeeded")
	}
}

func TestRegisterViaCreateRollback(t *testing.T) {
	c, cl := newRemote(t)
	if _, err := cl.CreatePath(fit.Attributes{}, "/dup"); err != nil {
		t.Fatal(err)
	}
	// Second create with the same path must fail and must not leak a file.
	before := filesCount(c)
	if _, err := cl.CreatePath(fit.Attributes{}, "/dup"); err == nil {
		t.Fatal("duplicate path create succeeded")
	}
	if got := filesCount(c); got != before {
		t.Fatalf("leaked file: %d -> %d", before, got)
	}
	// The same for a create that asks for the file back open: the name is
	// refused before the open, so neither a file nor an open reference stays.
	if _, err := cl.CreatePath(fit.Attributes{RefCount: 1}, "/dup"); err == nil {
		t.Fatal("duplicate path opened create succeeded")
	}
	if got := filesCount(c); got != before {
		t.Fatalf("opened create leaked a file: %d -> %d", before, got)
	}
	e, err := c.Naming.ResolvePath("/dup")
	if err != nil {
		t.Fatal(err)
	}
	if attr, err := c.Files.Attributes(fileservice.FileID(e.SystemName)); err != nil || attr.RefCount != 0 {
		t.Fatalf("the registered /dup has RefCount %d (err %v), want 0", attr.RefCount, err)
	}
	// A count other than 0 or 1 is refused and creates nothing.
	if _, err := cl.CreatePath(fit.Attributes{RefCount: 2}, "/twice"); err == nil {
		t.Fatal("create asking for two opens succeeded")
	}
	if got := filesCount(c); got != before {
		t.Fatalf("refused create left a file: %d -> %d", before, got)
	}
	if _, err := c.Naming.ResolvePath("/twice"); err == nil {
		t.Fatal("refused create registered its name")
	}
	// RefCount 1 hands the file back open exactly once.
	id, err := cl.CreatePath(fit.Attributes{RefCount: 1}, "/opened")
	if err != nil {
		t.Fatal(err)
	}
	if attr, err := c.Files.Attributes(id); err != nil || attr.RefCount != 1 {
		t.Fatalf("opened create RefCount = %d (err %v), want 1", attr.RefCount, err)
	}
	if err := cl.Close(id); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(id); err == nil {
		t.Fatal("second close of a file opened once succeeded")
	}
	if err := cl.Delete(id); err != nil {
		t.Fatalf("delete after the one close: %v", err)
	}
}

func filesCount(c *core.Cluster) int {
	rep, err := c.Files.Check()
	if err != nil {
		return -1
	}
	return rep.Files
}

func TestFileAgentOverLossyNetwork(t *testing.T) {
	// The full client stack (agent + its cache) over a network that drops
	// and duplicates 30% of messages: the §3 idempotent semantics keep the
	// file exactly right.
	c, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	srv := &rpcfs.Server{Files: c.Files, Naming: c.Naming}
	ep := endpointOf(srv, c.Metrics)
	tr := rpc.NewInProc(ep, rpc.FaultConfig{DropProb: 0.3, DupProb: 0.3, Seed: 42})
	cl := &rpcfs.Client{C: rpc.NewClient(tr, 5, 200, c.Metrics)}
	m, err := agent.NewMachine(agent.MachineConfig{Naming: c.Naming, Files: cl})
	if err != nil {
		t.Fatal(err)
	}
	p := m.NewProcess()
	fa := m.FileAgent()
	fd, err := fa.Create(p, "/lossy/file", fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 40; i++ {
		chunk := bytes.Repeat([]byte{byte(i)}, 500)
		if _, err := fa.Write(p, fd, chunk); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		want = append(want, chunk...)
	}
	if err := fa.Close(p, fd); err != nil {
		t.Fatal(err)
	}
	// Verify server-side, bypassing every client layer.
	e, err := c.Naming.ResolvePath("/lossy/file")
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Files.ReadAt(fileservice.FileID(e.SystemName), 0, len(want))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("content corrupted by lossy network: %v", err)
	}
	size, err := c.Files.Size(fileservice.FileID(e.SystemName))
	if err != nil || size != int64(len(want)) {
		t.Fatalf("size = %d, want %d (duplicated appends?)", size, len(want))
	}
}

// endpointOf serves srv on the ctx request handler, as a node does.
func endpointOf(srv *rpcfs.Server, met *metrics.Set) *rpc.Endpoint {
	h := srv.HandlerCtx()
	return rpc.NewEndpoint(func(ctx context.Context, req rpc.Request) ([]byte, error) {
		return h(ctx, req.Method, req.Body)
	}, rpc.WithMetrics(met))
}
