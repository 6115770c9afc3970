package ccache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/rpcfs"
	"repro/internal/simclock"
)

// ServerConfig configures the server-side lease manager.
type ServerConfig struct {
	// Inner is the wrapped handler executing file requests (an rpcfs
	// Server.HandlerCtx). Required.
	Inner rpc.Link
	// Wire is inert: bench/rig.go sets it, ROADMAP item 8 deletes it.
	Wire rpc.WireFormat
	// Size reports a file's current size for lease grants (raw file
	// IDs). Required.
	Size func(file uint64) (int64, error)
	// Obs receives lease telemetry. Optional.
	Obs *obs.Recorder
	// Now is the lease clock: grants, recall deadlines and the sweep run on
	// it. nil means a simclock.Wall of the server's own.
	Now simclock.Clock
}

// srvHolder is one client's lease on one file.
type srvHolder struct {
	mode    byte
	expires time.Duration // instants on the server's clock
	// recalled is set once a recall push went out, at recallStart; an
	// ack's wait is measured from it. pending holds from that push until
	// the next grant: meanwhile the lease is broken without an ack
	// DefaultRecallWait after recallStart.
	recalled, pending bool
	recallStart       time.Duration
}

// lapsesAt is the instant the lease expires or, if sooner, its pending
// recall has gone unacknowledged for DefaultRecallWait. From then on the
// server breaks it without an ack: the holder's own clock stopped it
// serving cached data at its expiry, which ran from its request.
func (h *srvHolder) lapsesAt() time.Duration {
	if h.pending {
		return min(h.expires, h.recallStart+DefaultRecallWait)
	}
	return h.expires
}

// srvFile is the per-file lease record.
type srvFile struct {
	ver     uint64
	holders map[uint64]*srvHolder
	// inflight counts mutations currently executing against the file.
	// Lease acquires answer busy while it is nonzero: a grant issued
	// mid-mutation could carry the pre-mutation version and let the
	// client cache pre-mutation bytes under a live lease — stale data
	// no later recall would ever fix, because the mutation's conflict
	// check already ran.
	inflight int
	// fence counts exclusive operations mid-recall. Acquires answer busy
	// while it is nonzero so a hot reader population cannot re-acquire
	// faster than a writer's recall rounds clear it — without the fence
	// every re-acquired lease is one more holder for the writer to wait
	// out.
	fence int
}

// empty reports whether the record holds nothing worth keeping.
func (f *srvFile) empty() bool { return len(f.holders) == 0 && f.inflight == 0 && f.fence == 0 }

// Server is the lease manager: it wraps a file-request handler,
// serves the cc.lease.* methods, intercepts file operations that
// conflict with outstanding leases (recalling their holders over the
// connection's push channel), and versions every mutation so
// re-acquiring clients know whether their cached blocks survived.
//
// Layering: on a clustered shard the Server sits between the cluster
// service and the rpcfs server (cluster's InnerCtx), so replicated
// replays on a backup maintain the backup's lease table too. Recalls
// initiated while the shard's replication order lock is held cannot
// wait for a write-lease holder's flush (the flush itself needs that
// lock), so conflicts with a write lease answer a transient
// recall-in-progress refusal and the caller retries; read-lease
// conflicts only need acks, which bypass the order lock, and are waited
// out inline.
type Server struct {
	inner  rpc.Link
	sizeFn func(file uint64) (int64, error)
	rec    *obs.Recorder
	clock  simclock.Clock

	// verGen mints file versions: globally unique and monotonic, so a
	// file whose lease record was garbage-collected and recreated can
	// never hand out a version an old client might still be caching
	// under.
	verGen atomic.Uint64

	mu      sync.Mutex
	files   map[uint64]*srvFile
	pushers map[uint64]rpc.Pusher
	// drops counts holders leaving any file's table; every change is
	// broadcast on dropped, which recall waits park on.
	drops   uint64
	dropped *sync.Cond

	stopSweep func()
}

// NewServer builds the lease manager and starts its sweeper. Close
// stops it.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Inner == nil {
		return nil, errors.New("ccache: nil inner handler")
	}
	if cfg.Size == nil {
		return nil, errors.New("ccache: nil size callback")
	}
	s := &Server{
		inner:   cfg.Inner,
		sizeFn:  cfg.Size,
		rec:     cfg.Obs,
		clock:   simclock.Or(cfg.Now),
		files:   make(map[uint64]*srvFile),
		pushers: make(map[uint64]rpc.Pusher),
	}
	s.dropped = sync.NewCond(&s.mu)
	s.stopSweep = simclock.Every(s.clock, DefaultTTL/4, func() bool {
		s.sweepOnce()
		return true
	})
	return s, nil
}

// Close stops the sweeper.
func (s *Server) Close() { s.stopSweep() }

// HandlerCtx is the lease manager's rpc.Link: it serves the lease protocol
// and guards everything else with the conflict check before delegating to
// the wrapped handler. Wire it as the cluster service's InnerCtx. A request
// whose context carries no peer recalls every conflicting holder —
// including the caller's own.
func (s *Server) HandlerCtx(ctx context.Context, method string, body []byte) ([]byte, error) {
	peer, hasPeer := rpc.PeerFromContext(ctx)
	if hasPeer && peer.Pusher != nil && peer.ClientID != 0 {
		// Latest connection wins: a reconnecting client's pushes must go
		// to the live conn, not the dead one.
		s.mu.Lock()
		s.pushers[peer.ClientID] = peer.Pusher
		s.mu.Unlock()
	}
	switch method {
	case MLeaseAcquire:
		return s.handleAcquire(body)
	case MLeaseRelease:
		return nil, s.handleRelease(body)
	case MLeaseAck:
		return nil, s.handleAck(body)
	}
	c := rpcfs.Classify(method, body)
	fid, ok, err := c.File()
	if err != nil {
		return nil, err
	}
	if !ok {
		return s.inner(ctx, method, body)
	}
	if err := s.beginFileOp(fid, peer.ClientID, c.Writes); err != nil {
		return nil, err
	}
	out, err := s.inner(ctx, method, body)
	if c.Writes {
		s.endMutation(fid, err == nil)
	}
	return out, err
}

// handleAcquire grants or renews a lease. Replicated to backups on
// clustered shards, so the grant survives failover; on a backup (no
// pushers registered) every conflicting holder breaks immediately, so
// the replay is never refused.
func (s *Server) handleAcquire(body []byte) ([]byte, error) {
	file, client, mode, err := DecodeAcquireArgs(body)
	if err != nil {
		return nil, err
	}
	if client == 0 {
		return nil, errors.New("ccache: acquire with zero client ID")
	}
	if mode != ModeRead && mode != ModeWrite {
		return nil, fmt.Errorf("ccache: acquire with unknown mode %d", mode)
	}
	if err := s.recallConflicts(file, client, mode == ModeWrite); err != nil {
		return nil, err
	}
	size, err := s.sizeFn(file)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	f := s.files[file]
	if f != nil && (f.inflight > 0 || f.fence > 0) {
		// A mutation is executing (a grant now could carry the
		// pre-mutation version while the client fetches post- or
		// mid-mutation bytes), or an exclusive recall is converging.
		// Busy; the client retries.
		s.mu.Unlock()
		return nil, rpc.Transient(fmt.Errorf("%s: file %#x", busyMarker, file))
	}
	if f == nil {
		f = &srvFile{ver: s.verGen.Add(1), holders: make(map[uint64]*srvHolder)}
		s.files[file] = f
	}
	h := f.holders[client]
	if h == nil {
		h = &srvHolder{}
		f.holders[client] = h
	}
	h.mode = mode
	h.expires = s.clock.Now() + DefaultTTL
	h.pending = false
	ver := f.ver
	s.mu.Unlock()
	s.rec.Gauge(MetricLeaseGrants).Inc()
	return AppendGrant(make([]byte, 0, acquireReplyLen), Grant{Ver: ver, Size: size, TTL: DefaultTTL}), nil
}

func (s *Server) handleRelease(body []byte) error {
	file, client, err := DecodeLeaseIDArgs(body)
	if err != nil {
		return err
	}
	s.dropHolder(file, client, false)
	return nil
}

func (s *Server) handleAck(body []byte) error {
	file, client, err := DecodeLeaseIDArgs(body)
	if err != nil {
		return err
	}
	s.dropHolder(file, client, true)
	return nil
}

// dropHolder removes one holder; acked recalls feed the wait histogram.
func (s *Server) dropHolder(file, client uint64, acked bool) {
	s.mu.Lock()
	var waited time.Duration
	if f := s.files[file]; f != nil {
		if h := f.holders[client]; h != nil {
			if acked && h.recalled {
				waited = s.clock.Now() - h.recallStart
			}
			delete(f.holders, client)
			s.droppedLocked()
		}
		if f.empty() {
			delete(s.files, file)
		}
	}
	s.mu.Unlock()
	if waited > 0 {
		s.rec.ValueHist(MetricRecallWaitNS).Record(waited)
	}
}

// beginFileOp clears the way for a file operation: read-class operations
// conflict with another client's write lease, mutating ones with any
// other client's lease. Conflicting holders are recalled; the call waits
// out ack-only conflicts and answers busy for flush-bearing ones (see
// the Server doc comment for why). A mutation additionally pins the
// file record (inflight, released by endMutation) under the same lock
// that verified no conflicting holders remain, so no lease can be
// granted between the conflict check and the mutation's completion.
func (s *Server) beginFileOp(file, requester uint64, mutating bool) error {
	for {
		if err := s.recallConflicts(file, requester, mutating); err != nil {
			return err
		}
		if !mutating {
			return nil
		}
		s.mu.Lock()
		f := s.files[file]
		if f == nil {
			f = &srvFile{ver: s.verGen.Add(1), holders: make(map[uint64]*srvHolder)}
			s.files[file] = f
		}
		raced := false
		for client := range f.holders {
			if client != requester {
				raced = true
				break
			}
		}
		if raced {
			// An acquire slipped in between the recall pass and this
			// lock; run another pass to recall it too.
			s.mu.Unlock()
			continue
		}
		f.inflight++
		s.mu.Unlock()
		return nil
	}
}

// endMutation unpins the file record and, on success, mints the version
// that tells re-acquiring clients their cached blocks are gone.
func (s *Server) endMutation(file uint64, ok bool) {
	s.mu.Lock()
	if f := s.files[file]; f != nil {
		f.inflight--
		if ok {
			f.ver = s.verGen.Add(1)
		}
		if f.empty() {
			delete(s.files, file)
		}
	}
	s.mu.Unlock()
}

// recallConflicts recalls every holder that conflicts with the given
// access (exclusive = a write or write-lease acquire, which conflicts
// with every other holder; shared conflicts only with write leases).
func (s *Server) recallConflicts(file, requester uint64, exclusive bool) error {
	fenced := false
	stop := func() bool { return false } // the last wait's wake-up
	defer func() {
		stop()
		if fenced {
			s.mu.Lock()
			if f := s.files[file]; f != nil {
				f.fence--
				if f.empty() {
					delete(s.files, file)
				}
			}
			s.mu.Unlock()
		}
	}()
	for {
		pending, hasWriter, drops, lapse := s.recallRound(file, requester, exclusive)
		if pending == 0 {
			return nil
		}
		if hasWriter {
			// The writer must flush before it acks; on a replicated
			// shard that flush needs the order lock this very call may
			// be holding. Hand the wait back to the caller.
			return rpc.Transient(fmt.Errorf("%s: file %#x", busyMarker, file))
		}
		s.mu.Lock()
		if exclusive && !fenced {
			// Gate new acquires while this recall is outstanding, or a
			// hot reader population re-acquires faster than its acks
			// arrive and the wait never converges.
			if f := s.files[file]; f != nil {
				f.fence++
				fenced = true
			}
		}
		// Wait for an ack, a release, a sweep or another round to drop a
		// holder, or for the first one left to lapse, which the next round
		// breaks.
		stop()
		stop = s.clock.AfterFunc(lapse-s.clock.Now(), s.wakeRecalls)
		for s.drops == drops && s.clock.Now() < lapse {
			s.dropped.Wait()
		}
		s.mu.Unlock()
	}
}

// droppedLocked wakes the recall waits after a holder left a file's table.
// Callers hold mu.
func (s *Server) droppedLocked() {
	s.drops++
	s.dropped.Broadcast()
}

// wakeRecalls wakes the recall waits to check for lapsed holders.
func (s *Server) wakeRecalls() {
	s.mu.Lock()
	s.dropped.Broadcast()
	s.mu.Unlock()
}

// recallRound initiates recalls for the current conflicting holders and
// reports how many are still outstanding, whether any of them holds a
// write lease, the drop count it saw and the first instant one of them
// lapses. Holders that lapsed or cannot be reached (no push channel — a
// backup replay, a dead connection) are broken at once.
func (s *Server) recallRound(file, requester uint64, exclusive bool) (pending int, hasWriter bool, drops uint64, lapse time.Duration) {
	type push struct {
		p    rpc.Pusher
		body []byte
	}
	var pushes []push
	broken, unacked := 0, 0
	now := s.clock.Now()
	s.mu.Lock()
	f := s.files[file]
	if f == nil {
		s.mu.Unlock()
		return 0, false, 0, 0
	}
	for client, h := range f.holders {
		if client == requester || (!exclusive && h.mode != ModeWrite) {
			continue
		}
		p := s.pushers[client]
		if now >= h.lapsesAt() || (!h.pending && p == nil) {
			// Expired, recalled long enough ago, or unreachable: break the
			// lease. The holder's own clock has (or will have) stopped it
			// serving cached data.
			if h.pending {
				unacked++
			}
			delete(f.holders, client)
			broken++
			continue
		}
		if !h.pending {
			h.recalled, h.pending = true, true
			h.recallStart = now
			// Push bodies must be plain allocations (see rpc.Pusher):
			// AppendRecall over nil allocates fresh.
			pushes = append(pushes, push{p, AppendRecall(nil, file, f.ver)})
		}
		if pending == 0 || h.lapsesAt() < lapse {
			lapse = h.lapsesAt()
		}
		pending++
		if h.mode == ModeWrite {
			hasWriter = true
		}
	}
	if broken > 0 {
		s.droppedLocked()
	}
	if f.empty() {
		delete(s.files, file)
	}
	drops = s.drops
	s.mu.Unlock()
	if broken > 0 {
		s.rec.Gauge(MetricLeaseBroken).Add(int64(broken))
		if unacked > 0 {
			s.rec.Eventf("ccache-break", "broke %d lease(s) on file %#x after recall timeout", unacked, file)
		}
	}
	for _, p := range pushes {
		s.rec.Gauge(MetricLeaseRecalls).Inc()
		// A dead connection cannot ack; the lapse breaks the holder.
		_ = p.p.Push(MRecall, p.body)
	}
	return pending, hasWriter, drops, lapse
}

// sweepOnce drops expired leases — the client side stopped trusting them at
// the same moment by its own clock — and overdue recalls whose conflicting
// operation has long given up. It runs every DefaultTTL/4.
func (s *Server) sweepOnce() {
	now := s.clock.Now()
	expired := 0
	s.mu.Lock()
	for file, f := range s.files {
		for client, h := range f.holders {
			if now >= h.lapsesAt() {
				delete(f.holders, client)
				expired++
			}
		}
		if f.empty() {
			delete(s.files, file)
		}
	}
	if expired > 0 {
		s.droppedLocked()
	}
	s.mu.Unlock()
	if expired > 0 {
		s.rec.Gauge(MetricLeaseExpired).Add(int64(expired))
		s.rec.Eventf("ccache-sweep", "swept %d expired client-cache lease(s)", expired)
	}
}
