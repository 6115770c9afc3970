// Package node assembles the facility's two deployed stacks, once: the
// server rhodosd runs (Start) and the client rhodos dials (Dial). The
// daemon, the CLI and every networked experiment rig instantiate these
// instead of transcribing the layer order, so what the experiments measure
// is what is deployed.
//
// Server, top to bottom: TCP listener → rpc endpoint (duplicate cache) →
// cluster service (shard ownership, network locks, replication) → ccache
// lease manager → rpcfs → the core facility. Client: agent machine →
// optional coherent cache → shard router.
package node

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/ccache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fileservice"
	"repro/internal/rpc"
	"repro/internal/rpcfs"
)

// Config describes one server node.
type Config struct {
	// Facility sizes the storage stack. Its Obs is the node's one
	// recorder — facility, lease manager, cluster service and endpoint all
	// report to it — and its Fault reaches the storage fault points only.
	Facility core.Config
	// Shard is this node's index in Map.Endpoints; Map is the cluster map
	// it serves (for a replicated shard, Map.Backups[Shard] is the pair's
	// backup address).
	Shard int
	Map   cluster.Map
	// Role is the shard's replication role. A primary dials
	// Map.Backups[Shard] lazily, so the backup may boot after it.
	Role cluster.Role
	// LeaseTTL is the network lock lease and ReplTTL the replication
	// lease; zero takes the cluster package's default.
	LeaseTTL time.Duration
	ReplTTL  time.Duration
	// Fault is consulted at the network fault points: the TCP dispatch, the
	// lease sweep, and the replication ship and ack. Optional.
	Fault *fault.Injector
	// Listener is the bound socket to serve on. Required; Start owns it
	// from the call on, error or not.
	Listener net.Listener
	// Workers sizes the handler pool and Window the per-client duplicate
	// cache; zero takes the rpc package's default.
	Workers int
	Window  int
}

// Node is one running server.
type Node struct {
	// Facility is the storage stack behind the node.
	Facility *core.Cluster
	// Service is the shard's cluster service: role, served map, lock leases.
	Service *cluster.Service

	fs     *rpcfs.Server
	leases *ccache.Server
	ship   *rpc.TCPTransport // primary only: the link to the backup
	ep     *rpc.Endpoint
	addr   string
	serve  []rpc.TCPOption

	mu     sync.Mutex
	tcp    *rpc.TCPServer // nil while killed
	closed bool
	err    error // Close's result, kept for repeat calls
}

// Start builds the facility and every layer above it and begins serving on
// cfg.Listener.
func Start(cfg Config) (*Node, error) {
	if cfg.Listener == nil {
		return nil, errors.New("node: nil listener")
	}
	n := &Node{addr: cfg.Listener.Addr().String()}
	fail := func(err error) (*Node, error) {
		_ = cfg.Listener.Close()
		_ = n.Close()
		return nil, err
	}
	fac, err := core.New(cfg.Facility)
	if err != nil {
		return fail(fmt.Errorf("building facility: %w", err))
	}
	n.Facility = fac
	rec := cfg.Facility.Obs

	var backup *rpc.Client
	if cfg.Role == cluster.RolePrimary {
		n.ship, err = rpc.DialTCP(cfg.Map.Backup(cfg.Shard), rpc.WithLazyDial())
		if err != nil {
			return fail(fmt.Errorf("dialing backup: %w", err))
		}
		backup = rpc.NewClient(n.ship, cluster.ReplClientID(cfg.Shard), 3, nil)
	}

	n.fs = &rpcfs.Server{Files: fac.Files, Naming: fac.Naming}
	// The client-cache lease manager sits between the cluster service and
	// the rpcfs handler: it serves cc.lease.* acquires, recalls conflicting
	// holders over the connection's push channel, and versions mutations.
	// On a backup it sees the primary's replicated replays, so its lease
	// table survives a failover with the data.
	n.leases, err = ccache.NewServer(ccache.ServerConfig{
		Inner: n.fs.HandlerCtx(),
		Size:  func(file uint64) (int64, error) { return n.fs.Files.Size(fileservice.FileID(file)) },
		Obs:   rec,
		Now:   fac.Locks().Clock(),
	})
	if err != nil {
		return fail(err)
	}
	n.Service, err = cluster.NewService(cluster.ServiceConfig{
		Shard:    cfg.Shard,
		Map:      cfg.Map,
		InnerCtx: n.leases.HandlerCtx,
		Locks:    fac.Locks(),
		LeaseTTL: cfg.LeaseTTL,
		Fault:    cfg.Fault,
		Role:     cfg.Role,
		Backup:   backup,
		ReplTTL:  cfg.ReplTTL,
		Obs:      rec,
	})
	if err != nil {
		return fail(err)
	}
	n.ep = rpc.NewEndpoint(n.Service.HandleRequestCtx,
		rpc.WithMetrics(fac.Metrics), rpc.WithObs(rec), rpc.WithWindow(cfg.Window))
	n.Service.BindEndpoint(n.ep)
	n.serve = []rpc.TCPOption{rpc.WithInjector(cfg.Fault), rpc.WithWorkers(cfg.Workers)}
	n.tcp = rpc.Serve(cfg.Listener, n.ep, n.serve...)
	return n, nil
}

// Addr is the address the node serves on (and Restart re-listens on).
func (n *Node) Addr() string { return n.addr }

// Kill drops the TCP server only: connections die and the port stops
// answering, while the facility, the lease sweepers and a primary's
// heartbeats live on — a server cut off from its clients. Restart undoes it.
func (n *Node) Kill() {
	n.mu.Lock()
	tcp := n.tcp
	n.tcp = nil
	n.mu.Unlock()
	if tcp != nil {
		_ = tcp.Close()
	}
}

// Restart re-listens on the node's address behind the same endpoint, so the
// duplicate cache and client sequence numbers carry over, and re-binds
// rpcfs to the facility's current file and naming services, so a facility
// that went through Crash and Recover while the node was down is served
// recovered. The network lock service keeps the lock manager it was started
// with.
func (n *Node) Restart() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return errors.New("node: restart after close")
	}
	if n.tcp != nil {
		return errors.New("node: restart of a serving node")
	}
	ln, err := net.Listen("tcp", n.addr)
	if err != nil {
		return err
	}
	n.fs.Files, n.fs.Naming = n.Facility.Files, n.Facility.Naming
	n.tcp = rpc.Serve(ln, n.ep, n.serve...)
	return nil
}

// Close takes the node down whole, in the order rhodosd shuts down: stop
// serving, stop the cluster service (heartbeats and the ship stream die
// with it), stop the lease manager, drop the link to the backup, then flush
// and close the facility. It returns the facility's close error; repeat
// calls return the same without doing anything.
func (n *Node) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return n.err
	}
	n.closed = true
	if n.tcp != nil {
		_ = n.tcp.Close()
		n.tcp = nil
	}
	if n.Service != nil {
		n.Service.Close()
	}
	if n.leases != nil {
		n.leases.Close()
	}
	if n.ship != nil {
		_ = n.ship.Close()
	}
	if n.Facility != nil {
		n.err = n.Facility.Close()
	}
	return n.err
}
