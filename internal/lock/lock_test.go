package lock

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/polltest"
	"repro/internal/simclock"
)

func newMgr(t *testing.T, opts ...func(*Config)) (*Manager, *simclock.Virtual) {
	t.Helper()
	clk := simclock.New()
	cfg := Config{Clock: clk, LT: 10 * time.Millisecond, MaxRenewals: 3, Metrics: metrics.NewSet()}
	for _, o := range opts {
		o(&cfg)
	}
	m := New(cfg)
	t.Cleanup(m.Close)
	return m, clk
}

// waitQueued waits until n requests have queued on m's lock tables.
func waitQueued(t *testing.T, m *Manager, n int64) {
	t.Helper()
	polltest.Until(t, fmt.Sprintf("%d queued requests", n), func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		return int64(m.waiting) >= n
	})
}

func fileItem(f uint64) ItemID        { return ItemID{File: f} }
func pageItem(f, p uint64) ItemID     { return ItemID{File: f, Offset: p} }
func recItem(f, off, n uint64) ItemID { return ItemID{File: f, Offset: off, Length: n} }

// TestTable1Compatibility reproduces the paper's Table 1 exactly.
func TestTable1Compatibility(t *testing.T) {
	cases := []struct {
		held, req Mode
		want      bool
	}{
		{ReadOnly, ReadOnly, true},
		{ReadOnly, IRead, true},
		{ReadOnly, IWrite, false},
		{IRead, ReadOnly, false}, // once IRead is set, no new read-only (§6.3)
		{IRead, IRead, false},    // a single IRead may share with ROs
		{IRead, IWrite, false},   // IWrite only via same-transaction conversion
		{IWrite, ReadOnly, false},
		{IWrite, IRead, false},
		{IWrite, IWrite, false},
	}
	for _, c := range cases {
		if got := Compatible(c.held, c.req); got != c.want {
			t.Errorf("Compatible(%v, %v) = %v, want %v", c.held, c.req, got, c.want)
		}
	}
}

func TestSharedReadOnly(t *testing.T) {
	m, _ := newMgr(t)
	it := fileItem(1)
	for txn := TxnID(1); txn <= 3; txn++ {
		if err := m.Acquire(context.Background(), txn, 100, File, it, ReadOnly); err != nil {
			t.Fatalf("txn %d RO acquire: %v", txn, err)
		}
	}
	if got := m.HoldCount(); got != 3 {
		t.Fatalf("HoldCount = %d, want 3", got)
	}
}

func TestIReadSharesWithReadOnlyButNotNewRO(t *testing.T) {
	m, _ := newMgr(t)
	it := pageItem(1, 0)
	if err := m.Acquire(context.Background(), 1, 0, Page, it, ReadOnly); err != nil {
		t.Fatal(err)
	}
	// IRead can join existing read-only locks.
	if err := m.Acquire(context.Background(), 2, 0, Page, it, IRead); err != nil {
		t.Fatalf("IRead alongside RO: %v", err)
	}
	// But a NEW read-only must now wait (prevents permanent blocking, §6.3).
	ok, err := m.TryAcquire(3, 0, Page, it, ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("new read-only granted after IRead was set")
	}
	// And a second IRead must wait too.
	ok, err = m.TryAcquire(4, 0, Page, it, IRead)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("second IRead granted")
	}
}

func TestIWriteExclusive(t *testing.T) {
	m, _ := newMgr(t)
	it := fileItem(7)
	if err := m.Acquire(context.Background(), 1, 0, File, it, IWrite); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ReadOnly, IRead, IWrite} {
		ok, err := m.TryAcquire(2, 0, File, it, mode)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("%v granted alongside IWrite", mode)
		}
	}
}

func TestIReadToIWriteConversion(t *testing.T) {
	m, _ := newMgr(t)
	it := pageItem(1, 5)
	if err := m.Acquire(context.Background(), 1, 0, Page, it, IRead); err != nil {
		t.Fatal(err)
	}
	// §6.3: an IWrite can be set when the item is IRead locked by the same
	// transaction.
	if err := m.Acquire(context.Background(), 1, 0, Page, it, IWrite); err != nil {
		t.Fatalf("IRead->IWrite conversion: %v", err)
	}
	modes := m.HeldModes(1, Page, it)
	if len(modes) != 1 || modes[0] != IWrite {
		t.Fatalf("HeldModes after conversion = %v, want [Iwrite]", modes)
	}
	if got := m.HoldCount(); got != 1 {
		t.Fatalf("HoldCount after conversion = %d, want 1 (converted, not added)", got)
	}
}

func TestConversionWaitsForReaderThenProceeds(t *testing.T) {
	m, _ := newMgr(t)
	it := pageItem(9, 0)
	if err := m.Acquire(context.Background(), 1, 0, Page, it, ReadOnly); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(context.Background(), 2, 0, Page, it, IRead); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(context.Background(), 2, 0, Page, it, IWrite) }()
	waitQueued(t, m, 1) // the conversion waits while txn 1 holds RO
	m.ReleaseAll(1)     // reader commits
	if err := polltest.Recv(t, done, "the conversion"); err != nil {
		t.Fatalf("conversion after reader release: %v", err)
	}
}

func TestWaiterGrantedOnRelease(t *testing.T) {
	m, _ := newMgr(t)
	it := fileItem(3)
	if err := m.Acquire(context.Background(), 1, 0, File, it, IWrite); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(context.Background(), 2, 0, File, it, IWrite) }()
	waitQueued(t, m, 1) // the second IWrite waits while the first is held
	m.ReleaseAll(1)
	if err := polltest.Recv(t, done, "the waiter's grant"); err != nil {
		t.Fatalf("waiter error: %v", err)
	}
}

func TestFIFOOrdering(t *testing.T) {
	m, _ := newMgr(t)
	it := fileItem(4)
	if err := m.Acquire(context.Background(), 1, 0, File, it, IWrite); err != nil {
		t.Fatal(err)
	}
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 2; i <= 4; i++ {
		wg.Add(1)
		txn := TxnID(i)
		go func(n int) {
			defer wg.Done()
			if err := m.Acquire(context.Background(), txn, 0, File, it, IWrite); err != nil {
				t.Errorf("txn %d: %v", n, err)
				return
			}
			mu.Lock()
			order = append(order, n)
			mu.Unlock()
			m.ReleaseAll(txn)
		}(i)
		waitQueued(t, m, int64(i-1)) // establish arrival order
	}
	m.ReleaseAll(1)
	wg.Wait()
	if len(order) != 3 || order[0] != 2 || order[1] != 3 || order[2] != 4 {
		t.Fatalf("grant order = %v, want [2 3 4]", order)
	}
}

func TestRecordRangeOverlap(t *testing.T) {
	m, _ := newMgr(t)
	// Txn 1 write-locks bytes [100,200).
	if err := m.Acquire(context.Background(), 1, 0, Record, recItem(1, 100, 100), IWrite); err != nil {
		t.Fatal(err)
	}
	// Overlapping range conflicts.
	ok, err := m.TryAcquire(2, 0, Record, recItem(1, 150, 100), IWrite)
	if err != nil || ok {
		t.Fatalf("overlapping record lock granted: ok=%v err=%v", ok, err)
	}
	// Disjoint range on the same file is fine — the whole point of record
	// granularity (§6.1).
	ok, err = m.TryAcquire(2, 0, Record, recItem(1, 300, 50), IWrite)
	if err != nil || !ok {
		t.Fatalf("disjoint record lock denied: ok=%v err=%v", ok, err)
	}
	// Same range on a different file is fine.
	ok, err = m.TryAcquire(3, 0, Record, recItem(2, 100, 100), IWrite)
	if err != nil || !ok {
		t.Fatalf("other-file record lock denied: ok=%v err=%v", ok, err)
	}
}

func TestZeroLengthRecordRejected(t *testing.T) {
	m, _ := newMgr(t)
	if err := m.Acquire(context.Background(), 1, 0, Record, recItem(1, 0, 0), IWrite); !errors.Is(err, ErrBadItem) {
		t.Fatalf("zero-length record lock = %v, want ErrBadItem", err)
	}
}

// TestUnknownModesRejected pins the one admission step: Acquire and
// TryAcquire refuse a mode outside Table 1 alike, and neither leaves a hold.
func TestUnknownModesRejected(t *testing.T) {
	m, _ := newMgr(t)
	for _, mode := range []Mode{0, IWrite + 1} {
		if err := m.Acquire(context.Background(), 1, 0, File, fileItem(1), mode); !errors.Is(err, ErrBadItem) {
			t.Fatalf("Acquire mode %d = %v, want ErrBadItem", mode, err)
		}
		if ok, err := m.TryAcquire(2, 0, File, fileItem(1), mode); ok || !errors.Is(err, ErrBadItem) {
			t.Fatalf("TryAcquire mode %d = %v, %v, want false, ErrBadItem", mode, ok, err)
		}
	}
	if n := m.HoldCount(); n != 0 {
		t.Fatalf("HoldCount = %d, want 0", n)
	}
}

func TestPageLocksIndependent(t *testing.T) {
	m, _ := newMgr(t)
	if err := m.Acquire(context.Background(), 1, 0, Page, pageItem(1, 0), IWrite); err != nil {
		t.Fatal(err)
	}
	ok, err := m.TryAcquire(2, 0, Page, pageItem(1, 1), IWrite)
	if err != nil || !ok {
		t.Fatalf("different-page lock denied: ok=%v err=%v", ok, err)
	}
}

func TestFileLevelConflictsWithAll(t *testing.T) {
	m, _ := newMgr(t)
	if err := m.Acquire(context.Background(), 1, 0, File, fileItem(1), IWrite); err != nil {
		t.Fatal(err)
	}
	ok, err := m.TryAcquire(2, 0, File, fileItem(1), ReadOnly)
	if err != nil || ok {
		t.Fatalf("file-level RO granted under IWrite: ok=%v err=%v", ok, err)
	}
}

func TestOneLevelPerFileRule(t *testing.T) {
	m, _ := newMgr(t)
	if err := m.Acquire(context.Background(), 1, 0, Page, pageItem(1, 0), ReadOnly); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(context.Background(), 2, 0, File, fileItem(1), ReadOnly); !errors.Is(err, ErrLevelMismatch) {
		t.Fatalf("second level on same file = %v, want ErrLevelMismatch", err)
	}
	// After release the file can be locked at a different level.
	m.ReleaseAll(1)
	if err := m.Acquire(context.Background(), 2, 0, File, fileItem(1), ReadOnly); err != nil {
		t.Fatalf("relock at new level after release: %v", err)
	}
}

func TestDeadlockBrokenByTimeout(t *testing.T) {
	m, clk := newMgr(t)
	a, b := fileItem(1), fileItem(2)
	if err := m.Acquire(context.Background(), 1, 0, File, a, IWrite); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(context.Background(), 2, 0, File, b, IWrite); err != nil {
		t.Fatal(err)
	}
	// Classic deadlock: 1 wants b, 2 wants a.
	errs := make(chan error, 2)
	go func() { errs <- m.Acquire(context.Background(), 1, 0, File, b, IWrite) }()
	go func() { errs <- m.Acquire(context.Background(), 2, 0, File, a, IWrite) }()
	waitQueued(t, m, 2) // both must be enqueued

	// Advance past LT: both locks are contested, so the sweep breaks them.
	clk.Advance(11 * time.Millisecond)
	broke := m.Sweep()
	if len(broke) == 0 {
		t.Fatal("sweep broke nothing despite expired contested locks")
	}
	// At least one waiter must have been released (either granted after the
	// victim died, or told it is broken).
	for i := 0; i < len(broke); i++ {
		polltest.Recv(t, errs, "a waiter released by the deadlock break")
	}
}

func TestUncontestedLockRenewedUpToN(t *testing.T) {
	m, clk := newMgr(t) // LT=10ms, N=3
	if err := m.Acquire(context.Background(), 1, 0, File, fileItem(1), IWrite); err != nil {
		t.Fatal(err)
	}
	// Two renewals pass without competition.
	for i := 0; i < 2; i++ {
		clk.Advance(11 * time.Millisecond)
		if broke := m.Sweep(); len(broke) != 0 {
			t.Fatalf("uncontested lock broken at renewal %d", i+1)
		}
	}
	// Third expiry is the Nth: broken regardless of competition (§6.4).
	clk.Advance(11 * time.Millisecond)
	broke := m.Sweep()
	if len(broke) != 1 || broke[0] != 1 {
		t.Fatalf("Sweep at N*LT = %v, want [1]", broke)
	}
	if !m.Broken(1) {
		t.Fatal("Broken(1) = false after N*LT expiry")
	}
}

func TestContestedLockBrokenAtFirstExpiry(t *testing.T) {
	m, clk := newMgr(t)
	it := fileItem(1)
	if err := m.Acquire(context.Background(), 1, 0, File, it, IWrite); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(context.Background(), 2, 0, File, it, IWrite) }()
	waitQueued(t, m, 1)
	clk.Advance(11 * time.Millisecond)
	broke := m.Sweep()
	if len(broke) != 1 || broke[0] != 1 {
		t.Fatalf("Sweep = %v, want [1] (contested expired lock broken)", broke)
	}
	// The waiter now gets the lock.
	if err := polltest.Recv(t, done, "the waiter's grant after the break"); err != nil {
		t.Fatalf("waiter after break: %v", err)
	}
}

func TestFreshLockSurvivesSweep(t *testing.T) {
	m, clk := newMgr(t)
	if err := m.Acquire(context.Background(), 1, 0, File, fileItem(1), IWrite); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Millisecond) // within LT
	if broke := m.Sweep(); len(broke) != 0 {
		t.Fatalf("lock broken inside its invulnerability window: %v", broke)
	}
}

func TestBrokenTxnCannotAcquire(t *testing.T) {
	m, clk := newMgr(t)
	if err := m.Acquire(context.Background(), 1, 0, File, fileItem(1), IWrite); err != nil {
		t.Fatal(err)
	}
	clk.Advance(100 * time.Millisecond)
	if broke := m.Sweep(); len(broke) != 1 {
		t.Fatalf("Sweep = %v", broke)
	}
	if err := m.Acquire(context.Background(), 1, 0, File, fileItem(2), ReadOnly); !errors.Is(err, ErrTxnBroken) {
		t.Fatalf("broken txn Acquire = %v, want ErrTxnBroken", err)
	}
	// ReleaseAll (the abort path) clears the flag for id reuse.
	m.ReleaseAll(1)
	if m.Broken(1) {
		t.Fatal("Broken flag survives ReleaseAll")
	}
}

func TestReleaseAllReleasesEverything(t *testing.T) {
	m, _ := newMgr(t)
	if err := m.Acquire(context.Background(), 1, 0, Page, pageItem(1, 0), IWrite); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(context.Background(), 1, 0, Page, pageItem(1, 1), IRead); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(context.Background(), 1, 0, File, fileItem(2), ReadOnly); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(1)
	if got := m.HoldCount(); got != 0 {
		t.Fatalf("HoldCount after ReleaseAll = %d, want 0", got)
	}
	// Items are cleaned up: the file-level map allows a new level now.
	if err := m.Acquire(context.Background(), 2, 0, File, fileItem(1), IWrite); err != nil {
		t.Fatalf("relock after cleanup: %v", err)
	}
}

func TestSearchStepsSplitVsCombined(t *testing.T) {
	// E12: with split tables a page-lock search only walks page items; with
	// a combined table it walks record and file items too.
	split, _ := newMgr(t)
	combined, _ := newMgr(t, func(c *Config) { c.Combined = true })
	for _, m := range []*Manager{split, combined} {
		txn := TxnID(1)
		// Populate: 50 record items, 50 page items, 50 file items on
		// distinct files.
		for i := 0; i < 50; i++ {
			if err := m.Acquire(context.Background(), txn, 0, Record, recItem(uint64(1000+i), 0, 10), ReadOnly); err != nil {
				t.Fatal(err)
			}
			if err := m.Acquire(context.Background(), txn, 0, Page, pageItem(uint64(2000+i), 0), ReadOnly); err != nil {
				t.Fatal(err)
			}
			if err := m.Acquire(context.Background(), txn, 0, File, fileItem(uint64(3000+i)), ReadOnly); err != nil {
				t.Fatal(err)
			}
		}
	}
	sBefore, cBefore := split.SearchSteps(), combined.SearchSteps()
	for i := 0; i < 20; i++ {
		if _, err := split.TryAcquire(2, 0, Page, pageItem(uint64(2000+i), 1), ReadOnly); err != nil {
			t.Fatal(err)
		}
		if _, err := combined.TryAcquire(2, 0, Page, pageItem(uint64(2000+i), 1), ReadOnly); err != nil {
			t.Fatal(err)
		}
	}
	sSteps := split.SearchSteps() - sBefore
	cSteps := combined.SearchSteps() - cBefore
	if sSteps >= cSteps {
		t.Fatalf("split tables scanned %d records, combined %d; split must scan fewer (E12)", sSteps, cSteps)
	}
}

func TestMetricsCounters(t *testing.T) {
	met := metrics.NewSet()
	m, _ := newMgr(t, func(c *Config) { c.Metrics = met })
	it := pageItem(1, 0)
	if err := m.Acquire(context.Background(), 1, 0, Page, it, IRead); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(context.Background(), 1, 0, Page, it, IWrite); err != nil {
		t.Fatal(err)
	}
	if met.Get(metrics.LocksGranted) != 1 {
		t.Fatalf("granted = %d, want 1", met.Get(metrics.LocksGranted))
	}
	if met.Get(metrics.LockUpgrades) != 1 {
		t.Fatalf("upgrades = %d, want 1", met.Get(metrics.LockUpgrades))
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(context.Background(), 2, 0, Page, it, IWrite) }()
	waitQueued(t, m, 1)
	if met.Get(metrics.LockWaits) != 1 {
		t.Fatalf("waits = %d, want 1", met.Get(metrics.LockWaits))
	}
	m.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestCloseFailsWaiters(t *testing.T) {
	m, _ := newMgr(t, func(c *Config) { c.LT = time.Hour })
	if err := m.Acquire(context.Background(), 1, 0, File, fileItem(1), IWrite); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(context.Background(), 2, 0, File, fileItem(1), IWrite) }()
	waitQueued(t, m, 1)
	m.Close()
	if err := polltest.Recv(t, done, "the waiter to fail on Close"); !errors.Is(err, ErrClosed) {
		t.Fatalf("waiter after Close = %v, want ErrClosed", err)
	}
	if err := m.Acquire(context.Background(), 3, 0, File, fileItem(2), ReadOnly); !errors.Is(err, ErrClosed) {
		t.Fatalf("Acquire after Close = %v, want ErrClosed", err)
	}
}

func TestSweeperBackground(t *testing.T) {
	m, clk := newMgr(t, func(c *Config) { c.LT = 5 * time.Millisecond; c.MaxRenewals = 1 })
	if err := m.Acquire(context.Background(), 1, 0, File, fileItem(1), IWrite); err != nil {
		t.Fatal(err)
	}
	stopSweep := m.StartSweeper(2 * time.Millisecond)
	defer stopSweep()
	clk.Advance(4 * time.Millisecond) // two sweeps inside the LT
	if m.Broken(1) {
		t.Fatal("sweeper broke the lock inside its LT")
	}
	clk.Advance(2 * time.Millisecond) // the sweep at 6 ms is past it
	if !m.Broken(1) {
		t.Fatal("background sweeper never broke the expired lock")
	}
}

func TestModeLevelStrings(t *testing.T) {
	if ReadOnly.String() != "read-only" || IRead.String() != "Iread" || IWrite.String() != "Iwrite" {
		t.Fatal("mode strings wrong")
	}
	if Record.String() != "record" || Page.String() != "page" || File.String() != "file" {
		t.Fatal("level strings wrong")
	}
}

// TestGrantAllocBudget: a two-lock commit's lock traffic — an Iread on one
// record converted to an Iwrite, an Iwrite on a second record, ReleaseAll —
// allocates at most twice on a warm manager. Building each item and hold
// afresh, and the overlap list per search, cost seven objects.
func TestGrantAllocBudget(t *testing.T) {
	m, _ := newMgr(t, func(c *Config) { c.LT = time.Hour })
	a, b := recItem(1, 0, 256), recItem(1, 8192, 256)
	txn := TxnID(0)
	commit := func() {
		txn++
		for _, step := range []struct {
			id   ItemID
			mode Mode
		}{{a, IRead}, {a, IWrite}, {b, IWrite}} {
			if err := m.Acquire(context.Background(), txn, 1, Record, step.id, step.mode); err != nil {
				t.Fatal(err)
			}
		}
		m.ReleaseAll(txn)
	}
	if got := testing.AllocsPerRun(200, commit); got > 2 {
		t.Errorf("a two-lock commit allocates %.1f objects in the lock manager, budget 2", got)
	}
	if n := m.HoldCount(); n != 0 {
		t.Errorf("%d holds left after ReleaseAll", n)
	}
}

// queuedNow returns the manager's waiting count and the waiters its tables
// actually hold.
func queuedNow(m *Manager) (count, held int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, table := range m.tables {
		for _, it := range table {
			held += len(it.waiters)
		}
	}
	return m.waiting, held
}

// TestWaitingCountSettles: the waiting count the regrant pass consults
// matches the queued requests after every way a request leaves a queue — a
// grant, a cancelled request, a break by Break or by Sweep, and Close — and
// is back at 0 once the queues are empty, in split and in combined tables.
func TestWaitingCountSettles(t *testing.T) {
	ways := map[string]func(t *testing.T, m *Manager, clk *simclock.Virtual){
		"ReleaseAll": func(t *testing.T, m *Manager, clk *simclock.Virtual) {
			m.ReleaseAll(1) // grants txn 2
			m.ReleaseAll(3) // cancels txn 3's request
		},
		"Break": func(t *testing.T, m *Manager, clk *simclock.Virtual) {
			m.Break(1)
			m.Break(3)
		},
		"Sweep": func(t *testing.T, m *Manager, clk *simclock.Virtual) {
			for i := 0; i < 2; i++ { // each contested holder breaks at its LT
				clk.Advance(11 * time.Millisecond)
				if broke := m.Sweep(); len(broke) != 1 {
					t.Fatalf("sweep %d broke %v, want one holder", i, broke)
				}
			}
		},
		"Close": func(t *testing.T, m *Manager, clk *simclock.Virtual) { m.Close() },
	}
	for _, combined := range []bool{false, true} {
		for name, way := range ways {
			t.Run(fmt.Sprintf("%s/combined=%v", name, combined), func(t *testing.T) {
				m, clk := newMgr(t, func(c *Config) { c.Combined = combined })
				it := pageItem(1, 0)
				if err := m.Acquire(context.Background(), 1, 0, Page, it, IWrite); err != nil {
					t.Fatal(err)
				}
				done := make(chan error, 2)
				for txn := TxnID(2); txn <= 3; txn++ {
					go func() { done <- m.Acquire(context.Background(), txn, 0, Page, it, IWrite) }()
					waitQueued(t, m, int64(txn-1)) // 2 queues before 3
				}
				if count, held := queuedNow(m); count != 2 || held != 2 {
					t.Fatalf("waiting = %d with %d queued, want 2 and 2", count, held)
				}
				way(t, m, clk)
				for i := 0; i < 2; i++ {
					polltest.Recv(t, done, "a queued request's answer")
				}
				if count, held := queuedNow(m); count != 0 || held != 0 {
					t.Fatalf("after %s: waiting = %d with %d queued, want 0", name, count, held)
				}
			})
		}
	}
}
