package node_test

import (
	"context"
	"net"
	"time"

	"repro/internal/agent"
	"repro/internal/ccache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/metrics"
	"repro/internal/naming"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/rpcfs"
	"repro/internal/txn"
)

// The nested bench module is frozen and tier-1 (`go build ./... && go test
// ./...`) does not compile it, so a signature it depends on could be broken
// here and only CI's `cd bench` step would notice. These are compile-time
// assertions of every declaration bench/*.go uses, at the signature it uses
// it at; nothing in this file runs. When one stops compiling, the benchmark
// has stopped compiling too: restore the declaration (a delegate in the
// package's compat.go) rather than editing the assertion. ROADMAP item 8
// re-signs bench/ and deletes this file with the compat.go files.

// The twelve context-free twins, each with the ...Ctx form beside it where
// bench calls that too.
var (
	// bench/probe.go
	_ func(*txn.Service, txn.TxnID, txn.FileID, int64, int, bool) ([]byte, error) = (*txn.Service).PRead
	_ func(*txn.Service, txn.TxnID, txn.FileID, int64, []byte) (int, error)       = (*txn.Service).PWrite
	_ func(*txn.Service, txn.TxnID) error                                         = (*txn.Service).End
	_ func(*fileservice.Service, fileservice.FileID, int64, int) ([]byte, error)  = (*fileservice.Service).ReadAt
	_ func(*fileservice.Service, fileservice.FileID, int64, []byte) (int, error)  = (*fileservice.Service).WriteAt

	// bench/wrap.go: ctxFiles is agent.FileService plus the two Ctx methods,
	// and *ccache.Client and *cluster.Router are its inner values.
	_ benchCtxFiles = (*ccache.Client)(nil)
	_ benchCtxFiles = (*cluster.Router)(nil)
	// ... which keeps the pair on every other implementation of the
	// interface.
	_ agent.FileService = (*rpcfs.Client)(nil)
	_ agent.FileService = (*fileservice.Service)(nil) // bench/workloads.go: MachineConfig.Files

	// bench/rig.go: the (method, body) method value assigned to
	// ServiceConfig.Inner, and the link beside it.
	_ func(*ccache.Server, string, []byte) ([]byte, error)                  = (*ccache.Server).Handler
	_ func(*ccache.Server, context.Context, string, []byte) ([]byte, error) = (*ccache.Server).HandlerCtx
)

// benchCtxFiles is bench/wrap.go's ctxFiles: an interface may repeat a method
// it embeds.
type benchCtxFiles interface {
	agent.FileService
	ReadAt(id fileservice.FileID, off int64, n int) ([]byte, error)
	WriteAt(id fileservice.FileID, off int64, data []byte) (int, error)
	ReadAtCtx(ctx context.Context, id fileservice.FileID, off int64, n int) ([]byte, error)
	WriteAtCtx(ctx context.Context, id fileservice.FileID, off int64, data []byte) (int, error)
}

// benchFilesTap and benchRouterTap forward the calls bench/wrap.go's filesTap
// and routerTap forward, so what agent.FileService, PathCreator and
// NameService ask of a tap, and what a tap asks of its inner value, are both
// checked.
type benchFilesTap struct{ inner benchCtxFiles }

func (f benchFilesTap) Create(a fit.Attributes) (fileservice.FileID, error) { return f.inner.Create(a) }
func (f benchFilesTap) Open(id fileservice.FileID) error                    { return f.inner.Open(id) }
func (f benchFilesTap) Close(id fileservice.FileID) error                   { return f.inner.Close(id) }
func (f benchFilesTap) Delete(id fileservice.FileID) error                  { return f.inner.Delete(id) }
func (f benchFilesTap) Truncate(id fileservice.FileID, size int64) error {
	return f.inner.Truncate(id, size)
}
func (f benchFilesTap) Attributes(id fileservice.FileID) (fit.Attributes, error) {
	return f.inner.Attributes(id)
}
func (f benchFilesTap) Size(id fileservice.FileID) (int64, error) { return f.inner.Size(id) }
func (f benchFilesTap) ReadAt(id fileservice.FileID, off int64, n int) ([]byte, error) {
	return f.inner.ReadAt(id, off, n)
}
func (f benchFilesTap) WriteAt(id fileservice.FileID, off int64, data []byte) (int, error) {
	return f.inner.WriteAt(id, off, data)
}
func (f benchFilesTap) ReadAtCtx(ctx context.Context, id fileservice.FileID, off int64, n int) ([]byte, error) {
	return f.inner.ReadAtCtx(ctx, id, off, n)
}
func (f benchFilesTap) WriteAtCtx(ctx context.Context, id fileservice.FileID, off int64, data []byte) (int, error) {
	return f.inner.WriteAtCtx(ctx, id, off, data)
}

type benchRouterTap struct {
	benchFilesTap
	rt *cluster.Router
}

func (r benchRouterTap) CreatePath(a fit.Attributes, path string) (fileservice.FileID, error) {
	return r.rt.CreatePath(a, path)
}
func (r benchRouterTap) Register(e naming.Entry) error               { return r.rt.Register(e) }
func (r benchRouterTap) Resolve(q naming.Name) (naming.Entry, error) { return r.rt.Resolve(q) }
func (r benchRouterTap) ResolvePath(p string) (naming.Entry, error)  { return r.rt.ResolvePath(p) }
func (r benchRouterTap) UnregisterSystemName(t naming.ObjectType, sys uint64) int {
	return r.rt.UnregisterSystemName(t, sys)
}

var (
	_ benchCtxFiles     = benchFilesTap{}
	_ agent.PathCreator = benchRouterTap{}
	_ agent.NameService = benchRouterTap{}
)

// benchTapInner is bench/wrap.go's tapInner: it takes and returns the
// unnamed link shape, so both rpc.Link values and method values pass through
// it into the config fields.
func benchTapInner(inner func(ctx context.Context, method string, body []byte) ([]byte, error)) func(ctx context.Context, method string, body []byte) ([]byte, error) {
	return inner
}

// benchShipTap is bench/wrap.go's shipTap: the transport under a primary's
// backup client.
type benchShipTap struct{ *rpc.TCPTransport }

func (s *benchShipTap) Send(req rpc.Request) (rpc.Response, error) {
	return s.TCPTransport.Send(req)
}
func (s *benchShipTap) SendWithDeadline(req rpc.Request, d time.Time) (rpc.Response, error) {
	return s.TCPTransport.SendWithDeadline(req, d)
}

// benchNode mirrors bench/rig.go's startNode and its handle method.
func benchNode(ln net.Listener, role cluster.Role, m cluster.Map, handle func(ctx context.Context, req rpc.Request) ([]byte, error)) error {
	const wire = rpc.WireBinary
	rec := obs.New()
	var svc *cluster.Service
	fac, err := core.New(core.Config{
		Disks:       1,
		Geometry:    device.Geometry{FragmentsPerTrack: 32, Tracks: 4096},
		Obs:         rec,
		GroupCommit: txn.GroupCommitConfig{Barrier: func() error { return svc.ReplBarrier() }},
	})
	if err != nil {
		return err
	}
	t, err := rpc.DialTCP(m.Backups[0], rpc.WithWireFormat(wire), rpc.WithLazyDial())
	if err != nil {
		return err
	}
	ship := &benchShipTap{TCPTransport: t}
	var backup *rpc.Client = rpc.NewClient(ship, cluster.ReplClientID(0), 3, nil)

	srv := &rpcfs.Server{Files: fac.Files, Naming: fac.Naming, Wire: wire}
	cc, err := ccache.NewServer(ccache.ServerConfig{
		Inner: benchTapInner(srv.HandlerCtx()),
		Wire:  wire,
		Size:  func(file uint64) (int64, error) { return fac.Files.Size(fileservice.FileID(file)) },
		Obs:   rec,
	})
	if err != nil {
		return err
	}
	svc, err = cluster.NewService(cluster.ServiceConfig{
		Shard:    0,
		Map:      m,
		Inner:    cc.Handler,
		InnerCtx: benchTapInner(cc.HandlerCtx),
		Wire:     wire,
		Locks:    fac.Locks(),
		Role:     role,
		Backup:   backup,
		Obs:      rec,
	})
	if err != nil {
		return err
	}
	ep := rpc.NewEndpoint(nil, rpc.WithCtxRequestHandler(handle), rpc.WithMetrics(fac.Metrics), rpc.WithObs(rec))
	svc.BindEndpoint(ep)
	var tcp *rpc.TCPServer = rpc.Serve(ln, ep, rpc.WithWireFormat(wire))

	req := rpc.Request{ClientID: 1, Method: rpcfs.MReadAt}
	if _, err := svc.HandleRequestCtx(context.Background(), req); err != nil {
		return err
	}
	_ = tcp.Close()
	svc.Close()
	cc.Close()
	_ = ship.Close()
	return fac.Close()
}

// benchClient mirrors bench/rig.go's dialClient and bench/workloads.go's
// in-process machine.
func benchClient(id uint64, addrs, backups []string, fac *core.Cluster) error {
	rec, met := obs.New(), metrics.NewSet()
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Endpoints: addrs,
		Backups:   backups,
		ClientID:  id,
		Wire:      rpc.WireBinary,
		Metrics:   met,
	})
	if err != nil {
		return err
	}
	tap := benchRouterTap{benchFilesTap: benchFilesTap{inner: rt}, rt: rt}
	cc, err := ccache.New(ccache.Config{Inner: tap.benchFilesTap, Lease: rt, ClientID: id, Obs: rec})
	if err != nil {
		return err
	}
	rt.SetPushSink(func(shard int, method string, body []byte) {
		if method != ccache.MRecall {
			return
		}
		if file, ver, err := ccache.DecodeRecall(body); err == nil {
			cc.Recall(fileservice.FileID(cluster.RoutedID(shard, file)), ver)
		}
	}, func(shard int, err error) { cc.DropLeases(nil) })
	var files agent.FileService = benchFilesTap{inner: cc}
	m, err := agent.NewMachine(agent.MachineConfig{Naming: tap, Files: files, DisableClientCache: true})
	if err != nil {
		return err
	}
	var fa *agent.FileAgent = m.FileAgent()
	var proc *agent.Process = m.NewProcess()
	fd, err := fa.Create(proc, "/p", fit.Attributes{})
	if err == nil {
		_, err = fa.PWrite(proc, fd, 0, nil)
	}
	if err == nil {
		_, err = fa.PRead(proc, fd, 0, 1)
	}
	if err == nil {
		err = fa.Close(proc, fd)
	}
	if err == nil {
		fd, err = fa.Open(proc, "/p")
	}
	if err == nil {
		err = fa.Delete("/p")
	}
	_ = met.Get("rpc.retries") + rec.Gauge(ccache.MetricHits).Value() + rec.Gauge(ccache.MetricMisses).Value()
	if _, rerr := rt.ResolvePath("/p"); rerr != nil && !rpcfs.IsNotFound(rerr) {
		return rerr
	}
	if cerr := cc.Shutdown(); cerr != nil {
		return cerr
	}
	rt.Shutdown()

	// bench/workloads.go buildTxnCommit, bench/probe.go probeTxn and probeMeta.
	_, err = agent.NewMachine(agent.MachineConfig{Naming: fac.Naming, Files: fac.Files, Txns: fac.Txns, Metrics: fac.Metrics, Obs: fac.Obs()})
	if err != nil {
		return err
	}
	for range fac.Metrics.Snapshot() {
	}
	tid, err := fac.Txns.Begin(1000)
	if err != nil {
		return err
	}
	if err := fac.Txns.Open(tid, txn.FileID(1), fit.LockRecord); err != nil {
		return fac.Txns.Abort(tid)
	}
	ent := naming.Entry{Name: naming.Name{"type": "FILE", "path": "/p"}, Type: naming.FileObject, SystemName: 1, Service: "rhodosd"}
	if err := fac.Naming.Register(ent); err != nil {
		return err
	}
	if _, err := fac.Naming.ResolvePath("/p"); err != nil {
		return err
	}
	_ = fac.Naming.UnregisterSystemName(naming.FileObject, 1)
	if _, err := fac.Files.Create(fit.Attributes{}); err != nil {
		return err
	}
	return fac.Files.Delete(1)
}

var (
	_ = benchNode
	_ = benchClient
	// bench/wrap.go kindOfMethod and shipTap.observe.
	_ = [...]string{rpcfs.MReadAt, rpcfs.MWriteAt, rpcfs.MCreate, rpcfs.MRegister, rpcfs.MOpen, rpcfs.MClose,
		rpcfs.MDelete, rpcfs.MResolve, rpcfs.MResolveQuery, rpcfs.MUnregisterSys, cluster.MReplApply}
	_ = [...]cluster.Role{cluster.RoleNone, cluster.RolePrimary, cluster.RoleBackup}
	_ = fit.ServiceTransaction
)
