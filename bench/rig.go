package main

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"

	"repro/internal/agent"
	"repro/internal/ccache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fileservice"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/rpcfs"
	"repro/internal/txn"
)

// wire is the transport and payload codec of every connection: rhodosd's and
// rhodos's default.
const wire = rpc.WireBinary

// rhodosdGeometry is rhodosd's default disk: -disks 1 -tracks 4096 (256 MB).
var rhodosdGeometry = device.Geometry{FragmentsPerTrack: 32, Tracks: 4096}

// node is one rhodosd: the stack cmd/rhodosd/main.go assembles, with the
// flags it defaults to, on a loopback listener. The only additions are the
// taps on the boundaries rhodosd already passes as values.
type node struct {
	fac *core.Cluster
	rec *obs.Recorder
	cc  *ccache.Server
	svc *cluster.Service
	srv *rpc.TCPServer
	tr  *tracer

	ship *shipTap // primary only

	readAts   atomic.Int64 // fs.readAt requests that reached the handler
	barrierNS atomic.Int64
}

// startNode boots one server of shard 0 of a one-shard map on ln.
func startNode(tr *tracer, ln net.Listener, role cluster.Role, m cluster.Map) (*node, error) {
	n := &node{tr: tr, rec: obs.New()}
	var svcPtr atomic.Pointer[cluster.Service]
	var barrier func() error
	if role == cluster.RolePrimary {
		barrier = func() error {
			t0 := tr.now()
			var err error
			if s := svcPtr.Load(); s != nil {
				err = s.ReplBarrier()
			}
			n.barrierNS.Add(tr.now() - t0)
			return err
		}
	}
	fac, err := core.New(core.Config{
		Disks:       1,
		Geometry:    rhodosdGeometry,
		Obs:         n.rec,
		GroupCommit: txn.GroupCommitConfig{Barrier: barrier},
	})
	if err != nil {
		return nil, fmt.Errorf("building facility: %w", err)
	}
	n.fac = fac

	var backupClient *rpc.Client
	if role == cluster.RolePrimary {
		t, err := rpc.DialTCP(m.Backups[0], rpc.WithWireFormat(wire), rpc.WithLazyDial())
		if err != nil {
			n.close()
			return nil, fmt.Errorf("dialing backup: %w", err)
		}
		n.ship = &shipTap{TCPTransport: t, tr: tr}
		backupClient = rpc.NewClient(n.ship, cluster.ReplClientID(0), 3, nil)
	}

	srv := &rpcfs.Server{Files: fac.Files, Naming: fac.Naming, Wire: wire}
	n.cc, err = ccache.NewServer(ccache.ServerConfig{
		Inner: tapInner(tr, layerRPCFS, srv.HandlerCtx()),
		Wire:  wire,
		Size:  func(file uint64) (int64, error) { return fac.Files.Size(fileservice.FileID(file)) },
		Obs:   n.rec,
	})
	if err != nil {
		n.close()
		return nil, err
	}
	n.svc, err = cluster.NewService(cluster.ServiceConfig{
		Shard:    0,
		Map:      m,
		Inner:    n.cc.Handler,
		InnerCtx: tapInner(tr, layerCCacheServer, n.cc.HandlerCtx),
		Wire:     wire,
		Locks:    fac.Locks(),
		Role:     role,
		Backup:   backupClient,
		Obs:      n.rec,
	})
	if err != nil {
		n.close()
		return nil, err
	}
	svcPtr.Store(n.svc)
	ep := rpc.NewEndpoint(nil, rpc.WithCtxRequestHandler(n.handle), rpc.WithMetrics(fac.Metrics), rpc.WithObs(n.rec))
	n.svc.BindEndpoint(ep)
	n.srv = rpc.Serve(ln, ep, rpc.WithWireFormat(wire))
	return n, nil
}

// handle is the rpc.WithCtxRequestHandler func: cluster.Service's, under a
// span that also tags the context with the client the request came from.
func (n *node) handle(ctx context.Context, req rpc.Request) ([]byte, error) {
	if req.Method == rpcfs.MReadAt {
		n.readAts.Add(1)
	}
	if !n.tr.on.Load() || req.ClientID == 0 || req.ClientID > maxBenchClients {
		return n.svc.HandleRequestCtx(ctx, req)
	}
	info := tapInfo{client: uint8(req.ClientID), kind: kindOfMethod(req.Method)}
	ctx = context.WithValue(ctx, tapKey{}, info)
	t0 := n.tr.now()
	out, err := n.svc.HandleRequestCtx(ctx, req)
	n.tr.add(layerClusterService, info.kind, info.client, t0, n.tr.now())
	return out, err
}

// close tears the node down in rhodosd's order of deferred calls.
func (n *node) close() {
	if n.srv != nil {
		_ = n.srv.Close()
	}
	if n.svc != nil {
		n.svc.Close()
	}
	if n.cc != nil {
		n.cc.Close()
	}
	if n.ship != nil {
		_ = n.ship.Close()
	}
	if n.fac != nil {
		_ = n.fac.Close()
	}
}

// client is one rhodos process's stack: `rhodos -addrs [-backups] [-cache]`,
// with the file agent on top as the API the workloads call.
type client struct {
	id   uint64
	rt   *cluster.Router
	tap  *routerTap
	cc   *ccache.Client // nil without -cache
	rec  *obs.Recorder  // the client cache's recorder
	met  *metrics.Set   // rpc client counters (retries)
	fa   *agent.FileAgent
	proc *agent.Process
}

// dialClient builds a client stack. The agent's own block cache is off: the
// coherent cache, when asked for, is the client cache of this stack.
func dialClient(tr *tracer, id uint64, addrs, backups []string, cached bool) (*client, error) {
	c := &client{id: id, rec: obs.New(), met: metrics.NewSet()}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Endpoints: addrs,
		Backups:   backups,
		ClientID:  id,
		Wire:      wire,
		Metrics:   c.met,
	})
	if err != nil {
		return nil, err
	}
	c.rt = rt
	tag := uint8(0)
	if id <= maxBenchClients {
		tag = uint8(id)
	}
	c.tap = newRouterTap(rt, tr, tag)
	var files agent.FileService = c.tap
	if cached {
		cc, err := ccache.New(ccache.Config{Inner: c.tap.filesTap, Lease: rt, ClientID: id, Obs: c.rec})
		if err != nil {
			rt.Shutdown()
			return nil, err
		}
		rt.SetPushSink(func(shard int, method string, body []byte) {
			if method != ccache.MRecall {
				return
			}
			if file, ver, err := ccache.DecodeRecall(body); err == nil {
				cc.Recall(fileservice.FileID(cluster.RoutedID(shard, file)), ver)
			}
		}, func(shard int, err error) { cc.DropLeases(nil) })
		c.cc = cc
		files = &filesTap{inner: cc, tr: tr, layer: layerCCacheClient, client: tag}
	}
	m, err := agent.NewMachine(agent.MachineConfig{Naming: c.tap, Files: files, DisableClientCache: true})
	if err != nil {
		c.close()
		return nil, err
	}
	c.fa = m.FileAgent()
	c.proc = m.NewProcess()
	return c, nil
}

// close hands leases back and closes the connections, as rhodos does on exit.
func (c *client) close() error {
	var err error
	if c.cc != nil {
		err = c.cc.Shutdown()
	}
	c.rt.Shutdown()
	return err
}
