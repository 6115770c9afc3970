package cluster

// Primary/backup shard replication and failover. A shard may run as a
// replicated pair: the primary executes mutations and ships the committed
// operation stream to a hot backup (internal/replication's Shipper/Applier)
// over a dedicated rpc connection, holding each reply until the backup has
// confirmed that mutation's record (execReplicated) — the one rule that
// acknowledges a replicated mutation. Records that pile up behind an
// in-flight ship go out as one batch, which amortizes the backup round trip
// the way group commit amortizes the log sync. A transaction committed on a
// primary's facility in process is not replicated: its intentions reach the
// file service directly, not through this path (no caller does so today).
// The backup replays the stream against its own file service and seeds its
// duplicate-request cache with the primary's replies, so a client
// retransmission that lands after a failover still gets the exactly-once
// answer.
//
// Failure handling is lease-shaped, like the lock service:
//
//   - The primary heartbeats the backup every TTL/3. A failed ship or
//     heartbeat marks the stream down and the primary serves solo (it drops
//     the backup from its map and bumps the version) — availability over
//     replication; re-syncing a lost backup is future work.
//
//   - The backup watches for primary silence. After a full TTL without a
//     ship or heartbeat it promotes itself: role flips to primary, its map
//     rewrites the shard's endpoint to its own address, version bumped.
//     Until then it refuses ordinary requests with a retriable "not
//     primary" error, which the router treats as a failover signal.
//
//   - A deposed primary that hears "promoted" from its backup fences
//     itself (RoleFenced) rather than keep serving a shard the cluster has
//     moved; rejoining as a backup is future work.
//
// Lock leases are not replicated: a failover breaks outstanding leases just
// as a server crash would, and transactions recover through the usual abort
// path against the promoted backup.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/replication"
	"repro/internal/rpc"
)

// Replication methods.
const (
	// MReplApply ships one mutation batch primary→backup (batch frame,
	// empty reply).
	MReplApply = "cluster.repl.apply"
	// MReplHeartbeat keeps the backup's promotion watchdog quiet between
	// mutations (no arguments, empty reply).
	MReplHeartbeat = "cluster.repl.heartbeat"
)

// Fault points on the replication path.
var (
	// PtReplShip is consulted before each batch ship: an error severs the
	// stream (the primary goes solo), a delay stalls every replicated reply.
	PtReplShip = fault.Register("cluster.repl.ship")
	// PtReplAck is consulted after the backup confirms, before the client is
	// answered: a delay here is the crash-before-ack window the failover
	// torture scenarios widen.
	PtReplAck = fault.Register("cluster.repl.ack")
)

// notPrimaryMarker is the service-error message a backup (or fenced former
// primary) answers ordinary requests with; it crosses the wire as a string,
// so IsNotReady matches the substring.
const notPrimaryMarker = "cluster: not primary for this shard"

// promotedMarker is what a promoted backup answers replication traffic
// with: the sender is a deposed primary and must fence itself.
const promotedMarker = "cluster: backup promoted"

// IsNotReady reports whether a remote error means the addressed server is
// not (or no longer) the shard's primary — the retriable failover signal
// the router's retry predicate matches.
func IsNotReady(err error) bool {
	return err != nil && strings.Contains(err.Error(), notPrimaryMarker)
}

// isPromoted reports whether a replication-path error means the backup has
// promoted itself.
func isPromoted(err error) bool {
	return err != nil && strings.Contains(err.Error(), promotedMarker)
}

// Role is a shard server's replication role.
type Role int32

const (
	// RoleNone is an unreplicated shard (the zero value): no backup, no
	// role checks — the pre-replication behaviour.
	RoleNone Role = iota
	// RolePrimary executes mutations and ships them to the backup.
	RolePrimary
	// RoleBackup replays the primary's stream and promotes on silence.
	RoleBackup
	// RoleFenced is a deposed primary: it refuses everything but the map,
	// pointing clients at its successor.
	RoleFenced
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleNone:
		return "none"
	case RolePrimary:
		return "primary"
	case RoleBackup:
		return "backup"
	case RoleFenced:
		return "fenced"
	default:
		return fmt.Sprintf("Role(%d)", int32(r))
	}
}

// DefaultReplTTL is the replication lease when ServiceConfig leaves it
// zero: the backup promotes after this much primary silence.
const DefaultReplTTL = time.Second

// ReplClientID is the rpc client identity the shard's replication stream
// uses toward the backup, far above any real agent's ID.
func ReplClientID(shard int) uint64 { return 1<<62 + uint64(shard) }

// replState is the replication half of a Service, present only on
// replicated shards.
type replState struct {
	ttl time.Duration

	// Primary side. ordMu serializes execute+append so the shipped stream
	// is one serialization order of the shard's mutations — the cost is
	// that replicated mutations execute one at a time (documented tradeoff;
	// reads are unaffected).
	ordMu sync.Mutex
	bc    *rpc.Client // dedicated connection to the backup
	sh    *replication.Shipper
	// lag is the recorder's MetricReplLagNS histogram, resolved once.
	lag *obs.Histogram

	// Backup side.
	ap *replication.Applier
}

// Role returns the server's current replication role.
func (s *Service) Role() Role { return Role(s.role.Load()) }

// BindEndpoint hands the Service the rpc endpoint serving it, so a backup
// can seed the endpoint's duplicate-request cache with the primary's
// replies. Call before serving traffic on a backup.
func (s *Service) BindEndpoint(ep *rpc.Endpoint) { s.ep.Store(ep) }

// checkServing refuses ordinary traffic on a server that is not the
// shard's primary. The error is retriable client-side — the router rebinds
// toward the current map and retries — and marked transient server-side so
// the endpoint's duplicate cache does not pin the refusal to the retry's
// sequence number: the same retransmission must execute once this server
// has promoted.
func (s *Service) checkServing() error {
	switch s.Role() {
	case RoleBackup, RoleFenced:
		return rpc.Transient(errors.New(notPrimaryMarker))
	}
	return nil
}

// execReplicated executes one owned rpcfs request and, on a replicated
// primary, ships it to the backup when replicate says it must and it
// succeeded — the reply is withheld until the backup confirms (or the
// stream goes down). The order lock serializes execute+append so the
// shipped stream is a serialization order of the shard's state machine.
func (s *Service) execReplicated(ctx context.Context, req rpc.Request, replicate bool) ([]byte, error) {
	r := s.repl
	if r == nil || r.sh == nil || s.Role() != RolePrimary || !replicate {
		return s.inner(ctx, req.Method, req.Body)
	}
	// The group-commit span brackets execute + append + wait; its
	// identity rides the replication record (in memory) so the shipper's
	// ship span — and, across the wire, the backup's apply — parent here.
	gctx, op := s.rec.StartOp(ctx, obs.LayerCluster, "group-commit")
	r.ordMu.Lock()
	out, err := s.inner(gctx, req.Method, req.Body)
	if err != nil {
		// Failed mutations change nothing and are not shipped; a replay of
		// the retry fails identically on the backup.
		r.ordMu.Unlock()
		op.End(err)
		return out, err
	}
	seq, ok := r.sh.Append(replication.Rec{
		Client:  req.ClientID,
		CSeq:    req.Seq,
		Method:  req.Method,
		Body:    req.Body,
		Reply:   out,
		TraceID: op.Span().TraceID(),
		SpanID:  op.Span().SpanID(),
	})
	r.ordMu.Unlock()
	if ok {
		w0 := time.Now()
		r.sh.Wait(seq)
		r.lag.Record(time.Since(w0))
		s.inj.Hit(PtReplAck)
	}
	op.End(nil)
	return out, nil
}

// handleReplApply replays one shipped batch on the backup. ctx carries
// the endpoint's serve span — the continuation of the primary's ship span
// when the batch arrived on a traced frame — so replayed mutations nest
// inside the originating trace.
func (s *Service) handleReplApply(ctx context.Context, body []byte) ([]byte, error) {
	r := s.repl
	if r == nil || r.ap == nil {
		return nil, errors.New("cluster: not a replication backup")
	}
	if s.Role() != RoleBackup {
		return nil, errors.New(promotedMarker)
	}
	s.touch()
	return nil, r.ap.ApplyBatch(ctx, body)
}

// handleReplHeartbeat quiets the backup's promotion watchdog.
func (s *Service) handleReplHeartbeat() ([]byte, error) {
	r := s.repl
	if r == nil || r.ap == nil {
		return nil, errors.New("cluster: not a replication backup")
	}
	if s.Role() != RoleBackup {
		return nil, errors.New(promotedMarker)
	}
	s.touch()
	return nil, nil
}

// neverHeard is lastHeard before the primary's first contact: on a clock
// that starts at zero, zero is a real instant.
const neverHeard = -1

// touch records that the primary was heard from just now.
func (s *Service) touch() { s.lastHeard.Store(int64(s.clock.Now())) }

// heartbeat keeps the backup's watchdog quiet while the primary is idle; it
// runs every TTL/3. It ends the loop once the stream is down or the primary
// is deposed — both terminal states for this pairing.
func (s *Service) heartbeat() bool {
	r := s.repl
	if s.Role() != RolePrimary || r.sh.Down() {
		return false
	}
	out, err := r.bc.Call(context.Background(), MReplHeartbeat, nil)
	r.bc.ReleaseBody(out)
	if err != nil {
		if isPromoted(err) {
			s.stepDown()
		} else {
			r.sh.MarkDown(fmt.Errorf("cluster: heartbeat: %w", err))
		}
		return false
	}
	return true
}

// watchdog promotes the backup once the primary has been silent for a full
// replication TTL; it runs every TTL/4. Silence only counts after the
// primary's first contact: a backup that has never heard from its primary
// is a pairing that is not live yet, not a dead shard.
func (s *Service) watchdog() bool {
	if s.Role() != RoleBackup {
		return false
	}
	last := s.lastHeard.Load()
	if last == neverHeard {
		return true
	}
	gap := int64(s.clock.Now()) - last
	s.rec.Gauge(MetricReplHeartbeatGap).Set(gap)
	if gap >= int64(s.repl.ttl) {
		s.promote()
		return false
	}
	return true
}

// promote flips the backup to primary: its map now names it as the shard's
// endpoint (no backup), at a higher version, so clients that refresh — or
// whose transports fail over — land here and are served.
func (s *Service) promote() {
	if !s.role.CompareAndSwap(int32(RoleBackup), int32(RolePrimary)) {
		return
	}
	silence := s.clock.Now() - time.Duration(s.lastHeard.Load())
	s.updateMap(func(m *Map) {
		m.Endpoints[s.shard] = s.self
		if s.shard < len(m.Backups) {
			m.Backups[s.shard] = ""
		}
	})
	s.rec.Eventf("promote", "shard %d: backup promoted after %v primary silence, map v%d", s.shard, silence, s.curVersion())
}

// stepDown fences a deposed primary: its backup has promoted itself, so
// this server stops serving and its map points at the successor.
func (s *Service) stepDown() {
	if !s.role.CompareAndSwap(int32(RolePrimary), int32(RoleFenced)) {
		return
	}
	s.updateMap(func(m *Map) {
		m.Endpoints[s.shard] = s.backupAddr
		if s.shard < len(m.Backups) {
			m.Backups[s.shard] = ""
		}
	})
	s.rec.Eventf("fence", "shard %d: deposed primary fenced, successor %s, map v%d", s.shard, s.backupAddr, s.curVersion())
}

// backupDown drops a lost backup from the map: the primary serves solo and
// clients stop considering the dead backup a failover target.
func (s *Service) backupDown() {
	s.updateMap(func(m *Map) {
		if s.shard < len(m.Backups) {
			m.Backups[s.shard] = ""
		}
	})
	s.rec.Eventf("solo", "shard %d: backup dropped from map, primary serving solo, map v%d", s.shard, s.curVersion())
}

// updateMap applies one mutation to the served shard map at a bumped
// version, re-encoding the cached reply body.
func (s *Service) updateMap(mutate func(*Map)) {
	s.mMu.Lock()
	defer s.mMu.Unlock()
	m := s.cur.Clone()
	mutate(&m)
	m.Version++
	s.cur = m
	s.mapBody = appendMap(make([]byte, 0, mapSize(m)), m)
}

// mapReply returns the cached encoded shard map.
func (s *Service) mapReply() []byte {
	s.mMu.RLock()
	defer s.mMu.RUnlock()
	return s.mapBody
}

// curVersion returns the served map's version.
func (s *Service) curVersion() uint64 {
	s.mMu.RLock()
	defer s.mMu.RUnlock()
	return s.cur.Version
}

// Map returns a copy of the currently served shard map (tests and the
// failover experiments inspect promotion through it).
func (s *Service) Map() Map {
	s.mMu.RLock()
	defer s.mMu.RUnlock()
	return s.cur.Clone()
}
