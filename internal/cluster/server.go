package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ccache"
	"repro/internal/fault"
	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/replication"
	"repro/internal/rpc"
	"repro/internal/rpcfs"
	"repro/internal/simclock"
)

// PtLeaseSweep is the fault point on the server's lease sweeper, hit once
// per sweep that breaks at least one lease.
var PtLeaseSweep = fault.Register("cluster.lease.sweep")

// errLeaseLost is the service error a renewal (or release) gets back once
// the lease has expired and been swept; the marker string is what
// IsLeaseLost matches after the error has crossed the wire.
const leaseLostMarker = "cluster: lease lost"

// IsLeaseLost reports whether a remote error means the transaction's lease
// expired server-side (its locks have been broken).
func IsLeaseLost(err error) bool {
	return err != nil && strings.Contains(err.Error(), leaseLostMarker)
}

// DefaultLeaseTTL is the lease duration when ServiceConfig leaves it zero.
const DefaultLeaseTTL = 2 * time.Second

// ServiceConfig configures one shard's cluster service.
type ServiceConfig struct {
	// Shard is this server's shard index in Map.Endpoints.
	Shard int
	// Map is the cluster map this server serves to clients. Required:
	// len(Map.Endpoints) is the shard count the ownership check uses.
	Map Map
	// InnerCtx is the wrapped handler executing owned requests (the lease
	// manager's HandlerCtx over an rpcfs server's). Required. Owned requests
	// execute under the cluster span it is handed, so the file service's own
	// spans nest inside the caller's trace.
	InnerCtx rpc.Link
	// Inner and Wire are inert: bench/rig.go sets them, nothing reads them,
	// ROADMAP item 8 deletes them.
	Inner func(method string, body []byte) ([]byte, error)
	Wire  rpc.WireFormat
	// Locks enables the network lock service; nil serves file/name methods
	// only.
	Locks *lock.Manager
	// LeaseTTL is the client lease duration (DefaultLeaseTTL when zero).
	LeaseTTL time.Duration
	// Fault is consulted at PtLeaseSweep, PtReplShip, and PtReplAck.
	// Optional.
	Fault *fault.Injector
	// Obs, when set, receives this server's cluster/replication telemetry:
	// group-commit spans, lease and failover counters, the replication-lag
	// histogram, and the failover event log. Optional; nil records nothing.
	Obs *obs.Recorder
	// Role selects the shard's replication role (RoleNone — unreplicated —
	// when zero; see repl.go). A primary requires Backup and a backup
	// address in Map.Backups[Shard]; a backup requires its own address
	// there, the address it promotes the shard's endpoint to.
	Role Role
	// Backup is a primary's dedicated rpc connection to its backup
	// (typically over its own transport, client ID ReplClientID(Shard)).
	Backup *rpc.Client
	// ReplTTL is the replication lease: the primary heartbeats at a third
	// of it, the backup promotes after a full one of silence
	// (DefaultReplTTL when zero).
	ReplTTL time.Duration
}

// Service is the per-shard server wrapper: it owns a slice of the naming
// namespace, redirects path-addressed requests for names it does not own,
// serves the shard map, runs the leased network lock service, and — on
// replicated shards — the primary/backup replication machinery (repl.go).
type Service struct {
	shard  int
	shards int
	inner  rpc.Link
	locks  *lock.Manager
	leases *LeaseTable
	inj    *fault.Injector
	rec    *obs.Recorder

	// The served map is mutable: promotion, fencing, and a lost backup
	// rewrite it at a bumped version.
	mMu     sync.RWMutex
	cur     Map
	mapBody []byte // pre-encoded shard map reply

	// Replication state (repl.go); role is RoleNone on unreplicated shards.
	role       atomic.Int32
	repl       *replState
	self       string       // backup: own address, installed on promotion
	backupAddr string       // primary: successor address, installed on fencing
	lastHeard  atomic.Int64 // backup: clock instant of last primary contact, neverHeard before it
	ep         atomic.Pointer[rpc.Endpoint]

	// clock is the lock manager's (a Wall without one): the lease table,
	// the sweep, the heartbeat and the backup's watchdog run on it.
	clock simclock.Clock
	// stops are the running loops' stop functions (simclock.Every).
	stops []func()
}

// NewService builds the shard service and starts its lease sweeper (when a
// lock manager is attached). Close stops the sweeper.
func NewService(cfg ServiceConfig) (*Service, error) {
	if cfg.InnerCtx == nil {
		return nil, errors.New("cluster: nil inner handler")
	}
	if cfg.Map.Shards() == 0 {
		return nil, errors.New("cluster: empty shard map")
	}
	if cfg.Shard < 0 || cfg.Shard >= cfg.Map.Shards() {
		return nil, fmt.Errorf("cluster: shard %d out of range 0..%d", cfg.Shard, cfg.Map.Shards()-1)
	}
	ttl := cfg.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	m := cfg.Map.Clone()
	s := &Service{
		shard:   cfg.Shard,
		shards:  cfg.Map.Shards(),
		cur:     m,
		mapBody: appendMap(make([]byte, 0, mapSize(m)), m),
		inner:   cfg.InnerCtx,
		rec:     cfg.Obs,
		locks:   cfg.Locks,
		inj:     cfg.Fault,
		clock:   &simclock.Wall{},
	}
	s.role.Store(int32(cfg.Role))
	if cfg.Locks != nil {
		s.clock = cfg.Locks.Clock()
		s.leases = NewLeaseTable(ttl, s.clock)
		s.stops = append(s.stops, simclock.Every(s.clock, ttl/4, s.sweep))
	}
	rttl := cfg.ReplTTL
	if rttl <= 0 {
		rttl = DefaultReplTTL
	}
	switch cfg.Role {
	case RoleNone:
	case RolePrimary:
		if cfg.Backup == nil {
			return nil, errors.New("cluster: primary role requires a backup connection")
		}
		if m.Backup(cfg.Shard) == "" {
			return nil, errors.New("cluster: primary role requires a backup address in the map")
		}
		s.backupAddr = m.Backup(cfg.Shard)
		r := &replState{ttl: rttl, bc: cfg.Backup, lag: cfg.Obs.ValueHist(MetricReplLagNS)}
		r.sh = replication.NewShipper(replication.ShipperConfig{
			Send:   s.shipBatch,
			OnDown: s.streamDown,
			Obs:    cfg.Obs,
		})
		s.repl = r
		s.stops = append(s.stops, simclock.Every(s.clock, rttl/3, s.heartbeat))
	case RoleBackup:
		if m.Backup(cfg.Shard) == "" {
			return nil, errors.New("cluster: backup role requires its own address in the map")
		}
		s.self = m.Backup(cfg.Shard)
		s.repl = &replState{ttl: rttl, ap: &replication.Applier{
			Apply: s.inner,
			Seed:  s.seedDup,
			Obs:   cfg.Obs,
		}}
		// The promotion clock starts at the primary's first contact, not at
		// construction: a backup that boots before its (possibly slow)
		// primary must not usurp a shard nobody has served through it yet.
		s.lastHeard.Store(neverHeard)
		s.stops = append(s.stops, simclock.Every(s.clock, rttl/4, s.watchdog))
	default:
		return nil, fmt.Errorf("cluster: cannot start in role %v", cfg.Role)
	}
	return s, nil
}

// shipBatch is the Shipper's Send: one MReplApply round trip to the
// backup, with PtReplShip consulted first. ctx carries the ship span, so
// the traced frame continues the trace on the backup.
func (s *Service) shipBatch(ctx context.Context, batch []byte) error {
	if err := s.inj.Err(PtReplShip); err != nil {
		return err
	}
	s.inj.Hit(PtReplShip)
	out, err := s.repl.bc.Call(ctx, MReplApply, batch)
	s.repl.bc.ReleaseBody(out)
	return err
}

// streamDown is the Shipper's OnDown: a deposed primary fences itself, a
// primary that merely lost its backup drops it from the map and serves
// solo.
func (s *Service) streamDown(cause error) {
	if isPromoted(cause) {
		s.stepDown()
	} else {
		s.backupDown()
	}
}

// seedDup stores a replayed reply in the serving endpoint's duplicate
// cache (see Applier.Seed). Replies are plain allocations — rpcfs's enc
// never draws from the transport pools — so retaining them is safe.
func (s *Service) seedDup(client, cseq uint64, reply []byte) {
	if ep := s.ep.Load(); ep != nil {
		ep.SeedDup(client, cseq, reply, "")
	}
}

// Close stops the lease sweeper and the replication loops, and shuts the
// ship stream down. It does not close the wrapped lock manager, handler,
// or the backup connection (the caller owns that transport).
func (s *Service) Close() {
	for _, stop := range s.stops {
		stop()
	}
	if r := s.repl; r != nil && r.sh != nil {
		r.sh.Close()
	}
}

// HandleRequestCtx is the endpoint's rpc.Handler: cluster methods are
// served here, everything else passes the role and namespace ownership
// checks and delegates to the wrapped handler (replicated to the backup
// when this shard is a primary — see execReplicated). Replication records
// carry the originating client's identity from req, and ctx carries the
// endpoint's serve span, keeping the whole execution inside the caller's
// trace.
func (s *Service) HandleRequestCtx(ctx context.Context, req rpc.Request) ([]byte, error) {
	switch req.Method {
	case MMap:
		return s.mapReply(), nil
	case MReplApply:
		return s.handleReplApply(ctx, req.Body)
	case MReplHeartbeat:
		return s.handleReplHeartbeat()
	}
	// A backup (or fenced former primary) serves the map and replication
	// traffic above, nothing else: clients get a retriable refusal and
	// re-route toward the current primary.
	if err := s.checkServing(); err != nil {
		return nil, err
	}
	switch req.Method {
	case MLockAcquire:
		return s.handleAcquire(req.Body)
	case MLockRenew:
		return s.handleRenew(req.Body)
	case MLockRelease:
		return s.handleRelease(req.Body)
	}
	// Ownership check: a path-addressed request for a name homed on another
	// shard is redirected, not executed. ID-addressed requests carry raw
	// per-server IDs (the router strips the shard tag), and name.list is
	// answered locally — the router fans it out and merges.
	c := rpcfs.Classify(req.Method, req.Body)
	if path, ok, err := c.Path(); err != nil {
		return nil, err
	} else if ok {
		if home := ShardForPath(path, s.shards); home != s.shard {
			return nil, NotMine(home, s.curVersion())
		}
	}
	// A request that changes state replicates. Of the client-cache lease
	// protocol only acquires do: the backup's lease table then covers every
	// grant that could outlive a failover, while releases and recall acks
	// stay off the replication path on purpose — an ack must land while a
	// recalling mutation still holds ordMu, so routing it through
	// execReplicated would deadlock. The backup over-approximates the holder
	// set and converges through its own expiry sweep.
	return s.execReplicated(ctx, req, c.Mutates || req.Method == ccache.MLeaseAcquire)
}

func (s *Service) handleAcquire(body []byte) ([]byte, error) {
	if s.locks == nil {
		return nil, errors.New("cluster: no lock service on this shard")
	}
	a, err := decodeLockAcquire(body)
	if err != nil {
		return nil, err
	}
	// One transaction, one owning client: reject before touching the lock
	// manager so a stray second client cannot piggyback on the lease.
	ok, created := s.leases.Grant(a.Client, a.Txn)
	if !ok {
		return nil, fmt.Errorf("cluster: txn %d leased to another client", a.Txn)
	}
	if created {
		s.rec.Gauge(MetricLeaseGrants).Inc()
	}
	item := lock.ItemID{File: a.File, Offset: a.Off, Length: a.Len}
	granted, err := s.locks.TryAcquire(lock.TxnID(a.Txn), int(a.PID), lock.Level(a.Level), item, lock.Mode(a.Mode))
	if (err != nil || !granted) && created {
		// The acquire this lease was minted for was denied: drop it, or the
		// sweeper would later break a transaction whose client was never
		// told it had a lease to renew.
		s.leases.Release(a.Txn)
	}
	if err != nil {
		return nil, err
	}
	return appendLockReply(make([]byte, 0, 1), LockReply{Granted: granted}), nil
}

func (s *Service) handleRenew(body []byte) ([]byte, error) {
	if s.locks == nil {
		return nil, errors.New("cluster: no lock service on this shard")
	}
	a, err := decodeLockTxn(body)
	if err != nil {
		return nil, err
	}
	if !s.leases.Renew(a.Client, a.Txn) {
		return nil, fmt.Errorf("%s: txn %d", leaseLostMarker, a.Txn)
	}
	s.rec.Gauge(MetricLeaseRenews).Inc()
	return nil, nil
}

func (s *Service) handleRelease(body []byte) ([]byte, error) {
	if s.locks == nil {
		return nil, errors.New("cluster: no lock service on this shard")
	}
	a, err := decodeLockTxn(body)
	if err != nil {
		return nil, err
	}
	s.locks.ReleaseAll(lock.TxnID(a.Txn))
	s.leases.Release(a.Txn)
	s.rec.Gauge(MetricLeaseReleases).Inc()
	return nil, nil
}

// sweep breaks the locks of transactions whose lease expired: their client
// is dead or partitioned, and §6.4's break path makes the transaction abort
// at its next lock operation. It runs every ttl/4.
func (s *Service) sweep() bool {
	due := s.leases.ExpireDue()
	if len(due) == 0 {
		return true
	}
	s.inj.Hit(PtLeaseSweep)
	s.rec.Gauge(MetricLeaseExpired).Add(int64(len(due)))
	s.rec.Eventf("lease-break", "shard %d: broke %d expired lease(s)", s.shard, len(due))
	for _, txn := range due {
		s.locks.Break(lock.TxnID(txn))
	}
	return true
}
