package txn

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/wal"
)

// Fault points at the group-commit batch boundaries. before-sync is the last
// instant at which every member of the batch can still vanish without trace
// (their records are appended but not durable); leader-synced dies after the
// leader's Sync succeeded but before any follower is woken — every member's
// commit record is durable, yet no member has been told, so recovery must
// find the whole batch fully durable while the members themselves saw only
// ErrCommitInterrupted.
var (
	PtGroupBeforeSync   = fault.Register("txn.group.before-sync")
	PtGroupLeaderSynced = fault.Register("txn.group.leader-synced")
)

// ErrCommitInterrupted reports that the commit's group-commit batch leader
// crashed while this transaction was parked on the batch. The outcome is
// uncertain until recovery: the commit record may or may not have reached
// stable storage, so the transaction is either fully durable or fully
// invisible after Recover, never half-applied. The service holds the
// transaction's locks and log records until recovery resolves it.
var ErrCommitInterrupted = errors.New("txn: commit interrupted: batch leader crashed")

// GroupCommitConfig tunes the group-commit pipeline. The zero value enables
// group commit with a batch cap of 64 and no extra linger, which is correct
// for every workload; the knobs exist for experiments.
type GroupCommitConfig struct {
	// Disable reverts to one wal.Sync per commit (the E19 baseline). Commits
	// then serialize through the log exactly as the pre-group-commit service
	// did.
	Disable bool
	// MaxBatch caps how many commits one leader syncs together (default 64).
	MaxBatch int
	// MaxDelay is the leader's linger window: a leader whose batch is below
	// MaxBatch waits up to MaxDelay for more committers before syncing.
	// Zero means no linger — batching then comes only from commits that
	// arrive while the previous batch's sync is in flight.
	MaxDelay time.Duration
	// Barrier is inert: bench/rig.go sets it, ROADMAP item 8 deletes it.
	Barrier func() error
}

// gcBatch is one commit batch: the transactions whose log records share a
// single stable-storage barrier. Its fields are guarded by groupCommit.mu.
// A batch every member has read the result of goes back to groupCommit.free
// for a later batch; one whose leader crashed is never read by that leader
// and is left to the collector.
type gcBatch struct {
	size int
	// epoch is g.dropEpoch at creation. If it advances before this batch's
	// leader issues its Sync, a failed sync ahead of the batch already
	// discarded its members' records via DropUnsynced, and the batch must
	// fail instead of syncing a log that no longer holds them.
	epoch  uint64
	closed bool  // no longer accepting members; err is settled
	err    error // nil: every member's records are durable
	// settled, on groupCommit.mu, wakes the members parked on the batch
	// once err is settled.
	settled sync.Cond
	// unread counts the members that have not read err yet.
	unread int
}

// groupCommit coordinates batched commit-record syncs. Concurrent End
// callers append their records under mu, join the current batch, and park;
// the first member of a batch is its leader and issues one wal.Sync for
// everyone. The amortization comes from the commits that arrive while a
// sync is in flight: they all join the next batch, and its one Sync covers
// them, so N concurrent commits cost ~1 barrier instead of N. Their appends
// do not overlap that sync, though: wal.Log.Sync holds the log's mutex
// across its stable write and barrier, so the first of them blocks inside
// wal.Append — holding mu — until the write lands, and the rest queue on
// mu behind it.
//
// Lock ordering: mu is acquired before the log's internal mutex (via
// Append/Sync/Rollback) and never the other way around. The leader drops mu
// across the Sync itself.
type groupCommit struct {
	s        *Service
	disabled bool
	maxBatch int
	maxDelay time.Duration
	// batchSize is the recorder's txn.group.batch_size value histogram,
	// resolved once (nil, and still recordable, without a recorder).
	batchSize *obs.Histogram

	mu   sync.Mutex
	idle *sync.Cond // broadcast whenever cur/syncing/unapplied/resetting change
	// cur is the open batch accepting members, nil when none is open.
	cur *gcBatch
	// syncing is true while some leader's wal.Sync is in flight. At most one
	// sync runs at a time; on a sync failure everything unsynced belongs to
	// batches whose members all receive the failure.
	syncing bool
	// unapplied counts transactions whose records are in the log but whose
	// intentions are not yet applied in place (from batch join until
	// applied/aborted). The log must not be truncated while it is nonzero —
	// the window the maybeTruncateLog regression test pins.
	unapplied int
	// resetting is true while a log truncation (checkpoint or log-full
	// reset) is in progress; appends wait it out.
	resetting bool
	// dropEpoch counts DropUnsynced calls. A failed sync drops *every*
	// unsynced record, and more than one batch can sit behind the in-flight
	// barrier (a filled batch plus the open cur), so poisoning cur alone is
	// not enough: every batch snapshots the epoch at creation and its leader
	// re-checks it after the in-flight-sync wait, failing the batch if the
	// epoch advanced underneath it.
	dropEpoch uint64
	// dropErr is the sync failure behind the latest dropEpoch bump.
	dropErr error
	// free holds batches every member has read the result of.
	free []*gcBatch
}

func newGroupCommit(s *Service, cfg GroupCommitConfig) *groupCommit {
	g := &groupCommit{
		s:        s,
		disabled: cfg.Disable,
		maxBatch: cfg.MaxBatch,
		maxDelay: cfg.MaxDelay,

		batchSize: s.obsRec.ValueHist("txn.group.batch_size"),
	}
	if g.maxBatch <= 0 {
		g.maxBatch = 64
	}
	g.idle = sync.NewCond(&g.mu)
	return g
}

// reset clears the volatile pipeline state. Recover calls it on a freshly
// mounted (or crash-abandoned) service: any batch in flight at the crash is
// resolved by the log replay, so the accounting restarts from zero.
func (g *groupCommit) reset() {
	g.mu.Lock()
	g.cur = nil
	g.syncing = false
	g.unapplied = 0
	g.resetting = false
	g.idle.Broadcast()
	g.mu.Unlock()
}

// applied retires one transaction from the unapplied count after its
// intentions reached their in-place homes (or its records were dropped with
// the failed sync that carried them).
func (g *groupCommit) applied() {
	g.mu.Lock()
	g.unapplied--
	g.idle.Broadcast()
	g.mu.Unlock()
}

// commit makes t's commit records durable: it appends them to the log and
// returns once they are covered by a stable-storage barrier. Under group
// commit the barrier is shared with every transaction in the same batch;
// with Disable set each commit pays its own.
//
// On nil return the caller owes one applied() call after applying the
// intentions. On ErrCommitInterrupted the outcome is unknown and the
// unapplied count stays elevated (blocking truncation) until Recover. On
// any other error the records are already backed out or dropped.
func (g *groupCommit) commit(ctx context.Context, t *txnState) error {
	if g.disabled {
		return g.commitSolo(t)
	}
	g.mu.Lock()
	for g.resetting {
		g.idle.Wait()
	}
	if err := g.appendLocked(t); err != nil {
		g.mu.Unlock()
		return err
	}
	b := g.cur
	leader := false
	if b == nil || b.closed || b.size >= g.maxBatch {
		b = g.newBatch()
		g.cur = b
		leader = true
	}
	b.size++
	b.unread++
	g.unapplied++
	g.idle.Broadcast() // a lingering leader re-checks its batch size
	g.mu.Unlock()

	if leader {
		g.lead(ctx, b)
	} else {
		g.s.met.groupWaits.Inc()
	}
	g.mu.Lock()
	for !b.closed {
		b.settled.Wait()
	}
	err := b.err
	g.release(b)
	g.mu.Unlock()
	if err != nil && !errors.Is(err, ErrCommitInterrupted) {
		g.applied() // records dropped with the failed sync; nothing to apply
	}
	return err
}

// newBatch returns an empty batch, reusing a free one when there is one.
// Callers hold g.mu.
func (g *groupCommit) newBatch() *gcBatch {
	var b *gcBatch
	if n := len(g.free); n > 0 {
		b = g.free[n-1]
		g.free[n-1] = nil
		g.free = g.free[:n-1]
	} else {
		b = &gcBatch{}
		b.settled.L = &g.mu
	}
	b.size, b.epoch, b.closed, b.err = 0, g.dropEpoch, false, nil
	return b
}

// release records that one member has read b's result; once every member
// has, b is free for a later batch. Callers hold g.mu.
func (g *groupCommit) release(b *gcBatch) {
	b.unread--
	if b.unread == 0 {
		g.free = append(g.free, b)
	}
}

// settle closes b with err and wakes its parked members. Callers hold g.mu.
func settle(b *gcBatch, err error) {
	b.closed, b.err = true, err
	b.settled.Broadcast()
}

// lead runs the leader side of one batch: linger for joiners, wait out the
// previous sync, close the batch, issue the shared Sync, and settle the
// batch, which wakes everyone.
func (g *groupCommit) lead(ctx context.Context, b *gcBatch) {
	g.mu.Lock()
	// Every commit arriving while the previous batch's sync runs joins b
	// here, once its append gets past that sync.
	for g.syncing && !b.closed {
		g.idle.Wait()
	}
	if b.closed {
		// A failed sync poisoned the batch while we waited.
		g.mu.Unlock()
		return
	}
	if b.epoch != g.dropEpoch {
		// A sync ahead of this batch failed while we waited: its
		// DropUnsynced discarded this batch's records along with the failed
		// batch's, so there is nothing left to harden — syncing now would
		// acknowledge every member with no durable commit record. Fail them
		// all instead.
		if g.cur == b {
			g.cur = nil
		}
		settle(b, fmt.Errorf("txn: group sync failed ahead of this batch: %w", g.dropErr))
		g.mu.Unlock()
		return
	}
	g.linger(b)
	if g.cur == b {
		g.cur = nil // later arrivals start the next batch
	}
	g.syncing = true
	size := b.size
	g.mu.Unlock()

	completed := false
	defer func() {
		if completed {
			return
		}
		// A fault-injected crash is unwinding through the leader. Poison the
		// batch so parked followers return instead of waiting on a dead
		// machine; their outcome is uncertain until recovery, so unapplied
		// stays elevated and the log keeps their records.
		g.mu.Lock()
		g.syncing = false
		settle(b, ErrCommitInterrupted)
		g.idle.Broadcast()
		g.mu.Unlock()
	}()

	_, op := g.s.obsRec.StartOp(ctx, obs.LayerTxn, "group-sync")
	op.SetCount(size) // the batch size, for the trace
	g.s.fault.Hit(PtGroupBeforeSync)
	err := g.s.log.Sync()
	if err == nil {
		g.s.fault.Hit(PtGroupLeaderSynced)
	}
	op.End(err)
	completed = true
	if err == nil {
		g.s.met.groupBatches.Inc()
		g.batchSize.Record(time.Duration(size))
	}

	g.mu.Lock()
	g.syncing = false
	if err != nil {
		// Nothing synced: the watermarks are untouched (wal.Sync is
		// failure-atomic), so everything unsynced belongs to this batch and
		// any batch formed behind it — possibly several (a filled batch plus
		// the open cur). Drop it all and advance the epoch so the leaders of
		// those batches fail them when they wake (the epoch re-check above);
		// the open batch is also poisoned directly so post-drop arrivals
		// start a clean one.
		g.s.log.DropUnsynced()
		g.dropEpoch++
		g.dropErr = err
		if nxt := g.cur; nxt != nil {
			g.cur = nil
			settle(nxt, fmt.Errorf("txn: group sync failed ahead of this batch: %w", err))
		}
	}
	settle(b, err)
	g.idle.Broadcast()
	g.mu.Unlock()
}

// linger holds the batch open for up to MaxDelay while it is below
// MaxBatch, giving concurrent committers time to join.
func (g *groupCommit) linger(b *gcBatch) {
	if g.maxDelay <= 0 || b.size >= g.maxBatch {
		return
	}
	expired := false
	stop := g.s.locks.Clock().AfterFunc(g.maxDelay, func() {
		g.mu.Lock()
		expired = true
		g.idle.Broadcast()
		g.mu.Unlock()
	})
	defer stop()
	for b.size < g.maxBatch && !b.closed && !expired {
		g.idle.Wait()
	}
}

// commitSolo is the ungrouped baseline: append and sync serialize per
// commit, so N concurrent commits pay N barriers. The unapplied accounting
// (and with it the truncation guard) is identical to the grouped path.
func (g *groupCommit) commitSolo(t *txnState) error {
	g.mu.Lock()
	for g.resetting || g.syncing {
		g.idle.Wait()
	}
	if err := g.appendLocked(t); err != nil {
		g.mu.Unlock()
		return err
	}
	g.unapplied++
	g.syncing = true
	g.mu.Unlock()

	g.s.fault.Hit(PtGroupBeforeSync)
	err := g.s.log.Sync()
	if err == nil {
		g.s.fault.Hit(PtGroupLeaderSynced)
	}

	g.mu.Lock()
	g.syncing = false
	if err != nil {
		// Only this commit's records are unsynced: appends waited out the
		// sync, so nothing else is in the volatile window. (No batches exist
		// in solo mode, but every DropUnsynced still bumps the epoch.)
		g.s.log.DropUnsynced()
		g.dropEpoch++
		g.dropErr = err
		g.unapplied--
	}
	g.idle.Broadcast()
	g.mu.Unlock()
	return err
}

// appendLocked writes t's commit records into the log under g.mu, handling
// a full log by backing its own partial tail out, draining the pipeline,
// checkpointing, and retrying once.
func (g *groupCommit) appendLocked(t *txnState) error {
	for attempt := 0; ; attempt++ {
		mark := g.s.log.Mark()
		err := g.s.writeCommitRecords(t)
		if err == nil {
			return nil
		}
		// Back out this transaction's partial tail. Appends serialize under
		// g.mu, so the tail is ours alone; the rollback can only fail if a
		// concurrent sync already hardened part of it, in which case the
		// orphaned records are inert (no commit record follows them).
		_ = g.s.log.Rollback(mark)
		if !errors.Is(err, wal.ErrLogFull) || attempt > 0 {
			return err
		}
		// The log is full: wait for every batched and unapplied record to
		// reach its in-place home, then checkpoint and retry. resetting
		// parks later appenders so the drain terminates.
		g.resetting = true
		for g.cur != nil || g.syncing || g.unapplied > 0 {
			g.idle.Wait()
		}
		ferr := g.s.checkpoint()
		g.resetting = false
		g.idle.Broadcast()
		if ferr != nil {
			return ferr
		}
	}
}

// beginTruncation enters the log-truncation critical section if the
// pipeline is quiescent: no open batch, no sync in flight, and no
// committed-but-unapplied records. On true the caller owes endTruncation.
func (g *groupCommit) beginTruncation() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cur != nil || g.syncing || g.unapplied > 0 || g.resetting {
		return false
	}
	g.resetting = true
	return true
}

func (g *groupCommit) endTruncation() {
	g.mu.Lock()
	g.resetting = false
	g.idle.Broadcast()
	g.mu.Unlock()
}
