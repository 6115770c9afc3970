package cluster

import (
	"context"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/lock"
	"repro/internal/rpc"
	"repro/internal/simclock"
)

// PtLeaseRenew is the fault point on the client's lease renewal path: an
// armed error simulates a partition (the renewal never reaches the server),
// a delay simulates a slow link.
var PtLeaseRenew = fault.Register("cluster.lease.renew")

// LockClient is the client half of the network lock service: acquisitions
// poll the server's non-blocking try (the server never parks a worker on a
// blocked lock), and a background renewer keeps the client's transactions
// leased. If the client dies or is partitioned the renewals stop, the
// server's sweeper breaks the transactions' locks, and competitors proceed.
type LockClient struct {
	c        *rpc.Client
	clientID uint64
	clock    simclock.Clock
	inj      *fault.Injector

	mu   sync.Mutex
	txns map[uint64]bool

	stopRenew func()
}

// Acquire backoff bounds: the first retry after a denied try waits
// acquireBackoffMin, doubling up to acquireBackoffMax.
const (
	acquireBackoffMin = time.Millisecond
	acquireBackoffMax = 50 * time.Millisecond
)

// NewLockClient starts a lock client over an rpc connection (share the
// router's via Router.Lock). ttl is the server's lease duration; renewals
// go out every ttl/3 of clock, and denied tries back off on it (nil: wall
// time). inj is consulted at PtLeaseRenew (optional).
func NewLockClient(c *rpc.Client, clientID uint64, ttl time.Duration, clock simclock.Clock, inj *fault.Injector) *LockClient {
	l := &LockClient{
		c:        c,
		clientID: clientID,
		clock:    simclock.Or(clock),
		inj:      inj,
		txns:     make(map[uint64]bool),
	}
	every := ttl / 3
	if every <= 0 {
		every = time.Millisecond
	}
	l.stopRenew = simclock.Every(l.clock, every, l.renew)
	return l
}

// Close stops the background renewer. It does not release held locks —
// that is exactly what the server's lease sweeper is for.
func (l *LockClient) Close() { l.stopRenew() }

// Acquire obtains one lock for txn, polling the server's non-blocking try
// with exponential backoff until granted, the context expires, or the
// server reports the transaction broken.
func (l *LockClient) Acquire(ctx context.Context, txn lock.TxnID, pid int, level lock.Level, item lock.ItemID, mode lock.Mode) error {
	args := LockAcquireArgs{
		Client: l.clientID,
		Txn:    uint64(txn),
		PID:    int64(pid),
		Level:  uint8(level),
		Mode:   uint8(mode),
		File:   item.File,
		Off:    item.Offset,
		Len:    item.Length,
	}
	backoff := simclock.Backoff{Clock: l.clock, Min: acquireBackoffMin, Max: acquireBackoffMax}
	for {
		// An already-canceled context must not issue a network call; the
		// mid-loop select alone only observes cancellation after a denied
		// try's backoff.
		if err := ctx.Err(); err != nil {
			return err
		}
		body := appendLockAcquire(rpc.Buffer(lockAcquireLen)[:0], args)
		out, err := l.c.Call(context.Background(), MLockAcquire, body)
		rpc.Recycle(body)
		if err != nil {
			l.c.ReleaseBody(out)
			return err
		}
		reply, err := decodeLockReply(out)
		l.c.ReleaseBody(out)
		if err != nil {
			return err
		}
		if reply.Granted {
			l.mu.Lock()
			l.txns[uint64(txn)] = true
			l.mu.Unlock()
			return nil
		}
		if err := backoff.Wait(ctx); err != nil {
			return err
		}
	}
}

// Release drops all of txn's locks and its lease.
func (l *LockClient) Release(txn lock.TxnID) error {
	l.mu.Lock()
	delete(l.txns, uint64(txn))
	l.mu.Unlock()
	body := appendLockTxn(rpc.Buffer(lockTxnLen)[:0], LockTxnArgs{Client: l.clientID, Txn: uint64(txn)})
	out, err := l.c.Call(context.Background(), MLockRelease, body)
	rpc.Recycle(body)
	l.c.ReleaseBody(out)
	return err
}

// renew renews every tracked transaction's lease; it runs every ttl/3. A
// transaction whose lease the server reports lost is dropped from the set —
// its locks are already broken and re-renewing would never succeed.
func (l *LockClient) renew() bool {
	if err := l.inj.Err(PtLeaseRenew); err != nil {
		return true // partitioned: the renewal never reaches the server
	}
	l.mu.Lock()
	txns := make([]uint64, 0, len(l.txns))
	for txn := range l.txns {
		txns = append(txns, txn)
	}
	l.mu.Unlock()
	for _, txn := range txns {
		body := appendLockTxn(rpc.Buffer(lockTxnLen)[:0], LockTxnArgs{Client: l.clientID, Txn: txn})
		out, err := l.c.Call(context.Background(), MLockRenew, body)
		rpc.Recycle(body)
		l.c.ReleaseBody(out)
		if err != nil && IsLeaseLost(err) {
			l.mu.Lock()
			delete(l.txns, txn)
			l.mu.Unlock()
		}
	}
	return true
}
