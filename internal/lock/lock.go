// Package lock implements the RHODOS lock manager (§6.1–§6.5): read-only,
// Iread and Iwrite locks with the compatibility of Table 1, three optional
// levels of granularity (record, page, file), one lock table per level, and
// timeout-based deadlock resolution with the LT invulnerability period.
//
// Lock tables are what §6.5 describes: each is a list of lock records, with
// the records for one data item queued together and searched linearly. The
// package counts the records examined per search, which is the quantity the
// paper's "separate table per level" argument is about (experiment E12); a
// Combined mode folds all three levels into a single table as the ablation.
//
// Deadlock handling follows §6.4: every granted lock is invulnerable for a
// period LT; when LT expires the lock is renewed only if no other
// transaction is competing for the item, for at most N renewals; at the Nth
// expiry the lock is broken and the holder aborted regardless of waiters.
//
// Concurrency and ownership contract: a Manager is safe for concurrent use;
// one mutex guards all tables, and blocked Acquire calls wait FIFO per item
// outside it. Locks are owned by transaction IDs, not goroutines — the
// transaction service acquires and releases on behalf of whichever
// goroutine drives the transaction, and ReleaseAll(txn) at commit/abort is
// the only bulk release (strict 2PL). Expiry is driven either by an
// explicit Sweep call (deterministic tests) or a StartSweeper loop on the
// manager's clock, owned by the caller, which must stop it. A broken
// transaction learns of it at its next lock operation (ErrTxnBroken).
package lock

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/simclock"
)

// Mode is a lock mode (§6.3).
type Mode int

// Lock modes. Compatibility follows Table 1:
//
//	held \ requested   RO     IR     IW
//	none               ok     ok     ok
//	RO                 ok     ok     wait (IW only via same-txn conversion)
//	IR                 wait   wait   wait (IW via same-txn conversion)
//	IW                 wait   wait   wait
const (
	// ReadOnly is the shared query lock; it can be shared by other
	// read-only locks and a single Iread lock.
	ReadOnly Mode = iota + 1
	// IRead is taken to read a data item with intent to modify it. Once an
	// Iread lock is set, no new read-only lock may be set on the item, which
	// prevents permanent blocking (§6.3).
	IRead
	// IWrite is the exclusive write lock; it cannot be shared with any other
	// lock and is normally obtained by converting an Iread lock.
	IWrite
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ReadOnly:
		return "read-only"
	case IRead:
		return "Iread"
	case IWrite:
		return "Iwrite"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Level is a locking granularity (§6.1).
type Level int

// Locking levels.
const (
	// Record locks a byte range; granularity can be as fine as a single
	// byte or as coarse as an entire file.
	Record Level = iota + 1
	// Page locks one page.
	Page
	// File locks an entire file.
	File
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case Record:
		return "record"
	case Page:
		return "page"
	case File:
		return "file"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// TxnID identifies a transaction.
type TxnID uint64

// ItemID names a data item within a file. For Record level, Offset/Length
// are a byte range (Length > 0); for Page level, Offset is the page number
// and Length is ignored; for File level both are ignored.
type ItemID struct {
	File   uint64
	Offset uint64
	Length uint64
}

// Errors returned by the manager.
var (
	// ErrTxnBroken reports that the transaction's locks were broken by the
	// deadlock timeout and the transaction must abort.
	ErrTxnBroken = errors.New("lock: transaction broken by deadlock timeout")
	// ErrLevelMismatch reports an attempt to lock a file at a second
	// granularity while it is locked at another (§6.1's simplifying rule).
	ErrLevelMismatch = errors.New("lock: file already locked at a different level")
	// ErrBadItem reports a malformed item (e.g. zero-length record range).
	ErrBadItem = errors.New("lock: malformed data item")
	// ErrClosed reports use of a closed manager.
	ErrClosed = errors.New("lock: manager closed")
)

// Compatible reports whether a lock of mode req can be set on a data item
// already locked with mode held by a different transaction — Table 1.
func Compatible(held, req Mode) bool {
	switch held {
	case ReadOnly:
		return req == ReadOnly || req == IRead
	case IRead, IWrite:
		return false
	default:
		return true
	}
}

// Config configures a Manager.
type Config struct {
	// Clock supplies time for the LT windows; defaults to a wall clock.
	Clock simclock.Clock
	// LT is the lock invulnerability period; defaults to 100 ms.
	LT time.Duration
	// MaxRenewals is N, the maximum number of LT renewals before a lock is
	// broken unconditionally; defaults to 5.
	MaxRenewals int
	// Metrics receives lock counters. Optional.
	Metrics *metrics.Set
	// Combined folds all levels into one lock table (ablation for E12).
	Combined bool
	// Obs receives per-acquire spans/latency observations and the
	// lock-waiter gauge. Optional.
	Obs *obs.Recorder
}

// hold is one granted lock — a lock-table record with granted = true.
type hold struct {
	txn       TxnID
	pid       int
	mode      Mode
	grantedAt time.Duration
	renewals  int
}

// waiter is one blocked request — a lock-table record with granted = false,
// queued on its data item (§6.5).
type waiter struct {
	txn   TxnID
	pid   int
	mode  Mode
	ch    chan error
	seq   uint64 // global FIFO order
	retry int    // retry count field of the lock record
}

// PageSize converts page-level item offsets to byte ranges for conflict
// detection; it matches the facility's 8 KB block size.
const PageSize = 8192

// item is one data item's queue head: the granted records plus the waiting
// records in FIFO order. An item a release empties goes on the manager's
// free list with both slices' backing arrays, so a grant on a warm manager
// allocates nothing.
type item struct {
	level   Level
	file    uint64
	off     uint64
	length  uint64
	holders []hold
	waiters []*waiter
}

// freeItems bounds the free list: enough for the locks of a few concurrent
// transactions, without pinning the peak of a table that grew once.
const freeItems = 64

// byteRange maps an item at any level onto the file's byte space, so items
// of different granularities can be compared (the §6.1 relaxation).
func byteRange(level Level, off, length uint64) (lo, hi uint64) {
	switch level {
	case File:
		return 0, math.MaxUint64
	case Page:
		return off * PageSize, (off + 1) * PageSize
	default: // Record
		return off, off + length
	}
}

// overlaps reports whether two items name intersecting data, comparing
// their byte ranges. For same-level items this coincides with the natural
// rules (pages are aligned, file covers everything); across levels it gives
// the §6.1 relaxation its semantics.
func (it *item) overlaps(level Level, file, off, length uint64) bool {
	if it.file != file {
		return false
	}
	aLo, aHi := byteRange(it.level, it.off, it.length)
	bLo, bHi := byteRange(level, off, length)
	return aLo < bHi && bLo < aHi
}

func (it *item) sameItem(level Level, file, off, length uint64) bool {
	return it.level == level && it.file == file && it.off == off && it.length == length
}

// Manager is the lock manager. It is safe for concurrent use.
type Manager struct {
	clock     simclock.Clock
	lt        time.Duration
	maxRenew  int
	obsRec    *obs.Recorder
	waitGauge *obs.Gauge // requests currently blocked waiting for a lock
	combined  bool
	// The lock counters, resolved from Config.Metrics in New.
	granted, waits, upgrades, timedOut *metrics.Counter

	mu     sync.Mutex
	closed bool
	// tables[level] is the per-level lock table: a linear list of items, as
	// §6.5 describes. In combined mode everything lives in tables[0].
	tables [File + 1][]*item
	// waiting counts the queued requests in every table, so a release with
	// nobody queued skips the regrant pass.
	waiting int
	// fileLevel tracks the active granularity per file for the
	// one-level-per-file rule.
	fileLevel map[uint64]Level
	fileRefs  map[uint64]int
	broken    map[TxnID]bool
	seq       uint64
	searches  int64 // item records examined (experiment E12)
	// free holds emptied items for reuse (see item); overlap is
	// findOverlapping's result buffer, valid until its next call.
	free    []*item
	overlap []*item
}

// New returns a Manager.
func New(cfg Config) *Manager {
	lt := cfg.LT
	if lt <= 0 {
		lt = 100 * time.Millisecond
	}
	n := cfg.MaxRenewals
	if n <= 0 {
		n = 5
	}
	return &Manager{
		clock:     simclock.Or(cfg.Clock),
		lt:        lt,
		maxRenew:  n,
		obsRec:    cfg.Obs,
		waitGauge: cfg.Obs.Gauge("lock.wait_count"),
		combined:  cfg.Combined,
		granted:   cfg.Metrics.Counter(metrics.LocksGranted),
		waits:     cfg.Metrics.Counter(metrics.LockWaits),
		upgrades:  cfg.Metrics.Counter(metrics.LockUpgrades),
		timedOut:  cfg.Metrics.Counter(metrics.TxnTimedOut),
		fileLevel: make(map[uint64]Level),
		fileRefs:  make(map[uint64]int),
		broken:    make(map[TxnID]bool),
	}
}

// tableKey returns the table a level's items live in.
func (m *Manager) tableKey(level Level) Level {
	if m.combined {
		return 0
	}
	return level
}

// SearchSteps returns the cumulative number of item records examined by
// table searches (experiment E12).
func (m *Manager) SearchSteps() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.searches
}

// findOverlapping walks the relevant table(s) linearly (counting search
// steps) and returns the items overlapping the request, plus the exact item
// if present. The overlapping items are returned in the manager's buffer,
// valid until the next call.
func (m *Manager) findOverlapping(level Level, id ItemID, length uint64) (overlapping []*item, exact *item) {
	overlapping = m.overlap[:0]
	for _, it := range m.tables[m.tableKey(level)] {
		m.searches++
		if !it.overlaps(level, id.File, id.Offset, length) {
			continue
		}
		overlapping = append(overlapping, it)
		if it.sameItem(level, id.File, id.Offset, length) {
			exact = it
		}
	}
	m.overlap = overlapping
	return overlapping, exact
}

// normLength returns the effective range length for conflict detection.
func normLength(level Level, id ItemID) (uint64, error) {
	switch level {
	case Record:
		if id.Length == 0 {
			return 0, fmt.Errorf("%w: record lock with zero length", ErrBadItem)
		}
		return id.Length, nil
	case Page:
		return 1, nil
	case File:
		return math.MaxUint64, nil
	default:
		return 0, fmt.Errorf("%w: level %v", ErrBadItem, level)
	}
}

// Acquire sets a lock of the given mode on the data item, blocking until it
// is granted or the transaction is broken by the deadlock timeout. pid is
// the requesting process identifier recorded in the lock table (§6.5).
//
// A transaction that already holds a lock on the item may request a new
// mode; the lock is converted when Table 1 permits it with respect to the
// other holders (§6.3: an Iwrite can be set if the item is Iread locked by
// the same transaction).
//
// The request — including any blocking wait — is bracketed by a lock-layer
// span under ctx's or a histogram observation, so lock-wait time shows up
// per layer in the profile.
func (m *Manager) Acquire(ctx context.Context, txn TxnID, pid int, level Level, id ItemID, mode Mode) error {
	_, op := m.obsRec.StartOp(ctx, obs.LayerLock, "acquire")
	op.SetFile(id.File)
	op.SetTxn(uint64(txn))
	err := m.acquire(txn, pid, level, id, mode)
	op.End(err)
	return err
}

func (m *Manager) acquire(txn TxnID, pid int, level Level, id ItemID, mode Mode) error {
	m.mu.Lock()
	granted, exact, length, err := m.admitLocked(txn, pid, level, id, mode)
	if err != nil || granted {
		m.mu.Unlock()
		return err
	}

	// Enqueue and wait.
	if exact == nil {
		exact = m.newItemLocked(level, id.File, id.Offset, length)
	}
	m.seq++
	w := &waiter{txn: txn, pid: pid, mode: mode, ch: make(chan error, 1), seq: m.seq}
	exact.waiters = append(exact.waiters, w)
	m.waiting++
	m.waits.Inc()
	m.mu.Unlock()

	m.waitGauge.Inc()
	err = <-w.ch
	m.waitGauge.Dec()
	return err
}

// TryAcquire is Acquire without blocking: it returns false when the lock
// cannot be granted immediately.
func (m *Manager) TryAcquire(txn TxnID, pid int, level Level, id ItemID, mode Mode) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	granted, _, _, err := m.admitLocked(txn, pid, level, id, mode)
	return granted, err
}

// admitLocked is Acquire's and TryAcquire's one admission step: validate the
// item's length, the mode and the level, refuse a closed manager and a
// broken transaction, apply the one-level-per-file rule (§6.1), search, and
// grant when Table 1 allows. A request that must wait gets back the exact
// item (nil when none exists yet) and its normalized length to queue on.
// Callers hold mu.
func (m *Manager) admitLocked(txn TxnID, pid int, level Level, id ItemID, mode Mode) (granted bool, exact *item, length uint64, err error) {
	if length, err = normLength(level, id); err != nil {
		return false, nil, 0, err
	}
	if mode < ReadOnly || mode > IWrite {
		return false, nil, 0, fmt.Errorf("%w: mode %v", ErrBadItem, mode)
	}
	if m.closed {
		return false, nil, 0, ErrClosed
	}
	if m.broken[txn] {
		return false, nil, 0, ErrTxnBroken
	}
	// One-level-per-file rule (§6.1).
	if cur, ok := m.fileLevel[id.File]; ok && cur != level {
		return false, nil, 0, fmt.Errorf("%w: file %d is %v-locked, requested %v", ErrLevelMismatch, id.File, cur, level)
	}
	overlapping, exact := m.findOverlapping(level, id, length)
	if !m.grantableLocked(txn, overlapping, mode, false) {
		return false, exact, length, nil
	}
	m.grantLocked(txn, pid, level, id, length, mode, exact)
	return true, exact, length, nil
}

// grantableLocked reports whether txn may take mode given the overlapping
// items. barging is allowed only when re-granting to the queue head.
func (m *Manager) grantableLocked(txn TxnID, overlapping []*item, mode Mode, isQueueHead bool) bool {
	upgrading := false
	for _, it := range overlapping {
		for _, h := range it.holders {
			if h.txn == txn {
				upgrading = true
				continue // a transaction never conflicts with itself
			}
			if !Compatible(h.mode, mode) {
				return false
			}
		}
	}
	if isQueueHead || upgrading {
		// Queue heads are being regranted in FIFO order; upgraders get
		// priority over queued waiters (standard conversion priority, and
		// required for the IRead→IWrite conversion of §6.3 to make progress).
		return true
	}
	for _, it := range overlapping {
		for _, w := range it.waiters {
			if w.txn != txn {
				return false // no barging past the FIFO queue
			}
		}
	}
	return true
}

// grantLocked records the grant, converting an existing hold if present.
func (m *Manager) grantLocked(txn TxnID, pid int, level Level, id ItemID, length uint64, mode Mode, exact *item) {
	now := m.clock.Now()
	if exact == nil {
		exact = m.newItemLocked(level, id.File, id.Offset, length)
	}
	for i := range exact.holders {
		if h := &exact.holders[i]; h.txn == txn {
			if mode > h.mode {
				h.mode = mode
				h.grantedAt = now
				h.renewals = 0
				m.upgrades.Inc()
			}
			return
		}
	}
	exact.holders = append(exact.holders, hold{
		txn: txn, pid: pid, mode: mode, grantedAt: now,
	})
	m.granted.Inc()
}

// newItemLocked appends an item to its table, reusing one from the free
// list when there is one.
func (m *Manager) newItemLocked(level Level, file, off, length uint64) *item {
	var it *item
	if n := len(m.free); n > 0 {
		it, m.free = m.free[n-1], m.free[:n-1]
	} else {
		it = new(item)
	}
	it.level, it.file, it.off, it.length = level, file, off, length
	key := m.tableKey(level)
	m.tables[key] = append(m.tables[key], it)
	if m.fileRefs[file] == 0 {
		m.fileLevel[file] = level
	}
	m.fileRefs[file]++
	return it
}

// removeEmptyItemsLocked drops items with no holders and no waiters.
func (m *Manager) removeEmptyItemsLocked() {
	for key := range m.tables {
		table := m.tables[key]
		kept := table[:0]
		for _, it := range table {
			if len(it.holders) == 0 && len(it.waiters) == 0 {
				m.fileRefs[it.file]--
				if m.fileRefs[it.file] == 0 {
					delete(m.fileRefs, it.file)
					delete(m.fileLevel, it.file)
				}
				if len(m.free) < freeItems {
					clear(it.waiters[:cap(it.waiters)]) // woken waiters go
					it.waiters = it.waiters[:0]
					m.free = append(m.free, it)
				}
				continue
			}
			kept = append(kept, it)
		}
		m.tables[key] = kept
	}
}

// regrantLocked wakes waiters that have become grantable. Queue heads are
// considered in global FIFO order; a head that is still blocked does not
// stall heads of other items (per-item FIFO is what §6.5's singly linked
// waiter queues provide).
func (m *Manager) regrantLocked() {
	if m.waiting == 0 {
		return
	}
	for progress := true; progress; {
		progress = false
		// Collect queue heads sorted by arrival order.
		var heads []*item
		for _, table := range m.tables {
			for _, it := range table {
				if len(it.waiters) > 0 {
					heads = append(heads, it)
				}
			}
		}
		for i := 0; i < len(heads); i++ {
			for j := i + 1; j < len(heads); j++ {
				if heads[j].waiters[0].seq < heads[i].waiters[0].seq {
					heads[i], heads[j] = heads[j], heads[i]
				}
			}
		}
		for _, it := range heads {
			if len(it.waiters) == 0 {
				continue
			}
			w := it.waiters[0]
			id := ItemID{File: it.file, Offset: it.off, Length: it.length}
			overlapping, _ := m.findOverlapping(it.level, id, it.length)
			if !m.grantableLocked(w.txn, overlapping, w.mode, true) {
				continue
			}
			it.waiters = it.waiters[1:]
			m.waiting--
			m.grantLocked(w.txn, w.pid, it.level, id, it.length, w.mode, it)
			w.ch <- nil
			progress = true
		}
	}
}

// ReleaseAll releases every lock held by txn and cancels its waiting
// requests — the unlocking phase of 2PL, entered only at commit or abort
// (§6.2). It also clears the transaction's broken flag.
func (m *Manager) ReleaseAll(txn TxnID) {
	m.mu.Lock()
	m.dropTxnLocked(txn)
	delete(m.broken, txn)
	m.removeEmptyItemsLocked()
	m.regrantLocked()
	m.mu.Unlock()
}

// Broken reports whether txn has been aborted by the deadlock timeout.
func (m *Manager) Broken(txn TxnID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.broken[txn]
}

// Sweep runs the LT expiry pass of §6.4 and returns the transactions it
// broke. A lock whose current invulnerability window has expired is renewed
// when no other transaction is competing for its item and it has renewals
// left; otherwise it is broken and its holder aborted. At the Nth expiry the
// lock is broken regardless of competition.
func (m *Manager) Sweep() []TxnID {
	m.mu.Lock()
	now := m.clock.Now()
	doomed := make(map[TxnID]bool)
	for _, table := range m.tables {
		for _, it := range table {
			contested := len(it.waiters) > 0
			for i := range it.holders {
				h := &it.holders[i]
				if doomed[h.txn] {
					continue
				}
				// Apply every LT expiry the lock has crossed: invulnerability
				// is bounded by N*LT in total, however sparsely sweeps run.
				for now >= h.grantedAt+time.Duration(h.renewals+1)*m.lt {
					if h.renewals+1 >= m.maxRenew || contested {
						doomed[h.txn] = true
						break
					}
					h.renewals++
				}
			}
		}
	}
	var out []TxnID
	for txn := range doomed {
		m.breakTxnLocked(txn)
		out = append(out, txn)
	}
	if len(out) > 0 {
		m.removeEmptyItemsLocked()
		m.regrantLocked()
	}
	m.mu.Unlock()
	return out
}

// Break forcibly breaks every lock txn holds and marks it broken, exactly
// as an exhausted LT renewal does (§6.4): waiters are failed with
// ErrTxnBroken, newly grantable locks are regranted, and the holder's next
// lock operation fails with ErrTxnBroken, so the transaction service aborts
// it. The network lock service uses it to revoke the locks of a client whose
// lease expired.
func (m *Manager) Break(txn TxnID) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.breakTxnLocked(txn)
	m.removeEmptyItemsLocked()
	m.regrantLocked()
	m.mu.Unlock()
}

// breakTxnLocked removes all of txn's holds and waiters and marks it broken.
func (m *Manager) breakTxnLocked(txn TxnID) {
	m.broken[txn] = true
	m.timedOut.Inc()
	m.dropTxnLocked(txn)
}

// dropTxnLocked removes every hold txn has and fails its waiting requests
// with ErrTxnBroken — the body ReleaseAll and breakTxnLocked share. Callers
// hold mu.
func (m *Manager) dropTxnLocked(txn TxnID) {
	for _, table := range m.tables {
		for _, it := range table {
			keptH := it.holders[:0]
			for _, h := range it.holders {
				if h.txn != txn {
					keptH = append(keptH, h)
				}
			}
			it.holders = keptH
			keptW := it.waiters[:0]
			for _, w := range it.waiters {
				if w.txn != txn {
					keptW = append(keptW, w)
				} else {
					w.ch <- ErrTxnBroken
					m.waiting--
				}
			}
			it.waiters = keptW
		}
	}
}

// HoldCount returns the total number of granted lock records (diagnostic,
// the "locks to manage" quantity of §6.1's overhead discussion).
func (m *Manager) HoldCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, table := range m.tables {
		for _, it := range table {
			n += len(it.holders)
		}
	}
	return n
}

// Clock returns the clock the LT windows run on: the transaction service's
// group-commit linger and a cluster service's leases share it.
func (m *Manager) Clock() simclock.Clock { return m.clock }

// StartSweeper runs Sweep every interval of the manager's clock and returns
// the function that stops it (idempotent; it returns once the sweeper exited).
func (m *Manager) StartSweeper(interval time.Duration) (stop func()) {
	return simclock.Every(m.clock, interval, func() bool {
		m.Sweep()
		return true
	})
}

// Close marks the manager closed, failing all current and future waiters.
func (m *Manager) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	for _, table := range m.tables {
		for _, it := range table {
			for _, w := range it.waiters {
				w.ch <- ErrClosed
			}
			it.waiters = nil
		}
	}
	m.waiting = 0
}
