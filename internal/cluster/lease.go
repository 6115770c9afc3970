package cluster

import (
	"sync"
	"time"

	"repro/internal/simclock"
)

// LeaseTable tracks, per transaction holding network locks, which client
// owns it and when its lease expires. A lease is granted with the first
// successful acquire, extended by renewals, and dropped on release; a lease
// that reaches its expiry without a renewal means the owning client is dead
// or partitioned, and the sweeper breaks the transaction's locks so it
// aborts cleanly (§6.4's break machinery, repurposed for client liveness).
type LeaseTable struct {
	ttl   time.Duration
	clock simclock.Clock

	mu     sync.Mutex
	leases map[uint64]*leaseEntry
}

type leaseEntry struct {
	client  uint64
	expires time.Duration // instant on the table's clock
}

// NewLeaseTable builds a table with the given lease duration on clock; nil
// means a simclock.Wall of its own (tests pass a simclock.Virtual).
func NewLeaseTable(ttl time.Duration, clock simclock.Clock) *LeaseTable {
	return &LeaseTable{ttl: ttl, clock: simclock.Or(clock), leases: make(map[uint64]*leaseEntry)}
}

// Grant leases txn to client, or extends the lease if client already holds
// it. ok is false when another live client holds the transaction — one
// transaction has exactly one owning client. created reports that this call
// made a new lease (rather than extending one), so a caller whose lock
// acquire is then denied can drop it again: the client only renews leases of
// transactions it was granted locks for, and a lingering lease from a denied
// acquire would make the sweeper break an innocent requester.
func (t *LeaseTable) Grant(client, txn uint64) (ok, created bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.leases[txn]
	if e == nil {
		t.leases[txn] = &leaseEntry{client: client, expires: t.clock.Now() + t.ttl}
		return true, true
	}
	if e.client != client {
		return false, false
	}
	e.expires = t.clock.Now() + t.ttl
	return true, false
}

// Renew extends client's lease on txn, reporting false when the lease does
// not exist or belongs to another client (it has expired and been swept, or
// was never granted) — the caller's transaction is no longer protected.
func (t *LeaseTable) Renew(client, txn uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.leases[txn]
	if e == nil || e.client != client {
		return false
	}
	e.expires = t.clock.Now() + t.ttl
	return true
}

// Release drops txn's lease (transaction finished).
func (t *LeaseTable) Release(txn uint64) {
	t.mu.Lock()
	delete(t.leases, txn)
	t.mu.Unlock()
}

// ExpireDue removes and returns every transaction whose lease has expired.
func (t *LeaseTable) ExpireDue() []uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.clock.Now()
	var due []uint64
	for txn, e := range t.leases {
		if e.expires <= now {
			due = append(due, txn)
			delete(t.leases, txn)
		}
	}
	return due
}
