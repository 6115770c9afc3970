package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fit"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/txn"
	"repro/internal/workload"
)

// T1LockMatrix renders the paper's Table 1 exactly as implemented.
func T1LockMatrix() (*Table, error) {
	t := &Table{
		ID:      "T1",
		Title:   "Lock compatibility (paper Table 1)",
		Claim:   "RO shares with RO and one IR; IR admits nothing new; IW is exclusive",
		Columns: []string{"held \\ requested", "read-only", "Iread", "Iwrite"},
	}
	modes := []lock.Mode{lock.ReadOnly, lock.IRead, lock.IWrite}
	render := func(ok bool) string {
		if ok {
			return "ok"
		}
		return "wait"
	}
	t.AddRow("none", "ok", "ok", "ok")
	for _, held := range modes {
		t.AddRow(held.String(),
			render(lock.Compatible(held, lock.ReadOnly)),
			render(lock.Compatible(held, lock.IRead)),
			render(lock.Compatible(held, lock.IWrite)))
	}
	t.Notes = append(t.Notes, "Iwrite is additionally reachable by same-transaction conversion from Iread (§6.3)")
	return t, nil
}

// E7LockGranularity reproduces §6.1: record locking maximizes concurrency at
// higher locking overhead; file locking minimizes overhead but serializes;
// page locking sits between.
func E7LockGranularity() (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "Committed transactions vs concurrency per lock level",
		Claim:   "record > page > file concurrency; file < page < record locks managed",
		Columns: []string{"level", "workers", "committed in 250ms", "timeouts", "locks granted", "wall time"},
	}
	levels := []fit.LockLevel{fit.LockRecord, fit.LockPage, fit.LockFile}
	for _, level := range levels {
		for _, workers := range []int{1, 4, 16} {
			committed, timeouts, granted, wall, err := e7Run(level, workers)
			if err != nil {
				return nil, fmt.Errorf("E7 %v/%d: %w", level, workers, err)
			}
			t.AddRow(level.String(), workers, committed, timeouts, granted, wall)
		}
	}
	t.Notes = append(t.Notes,
		"under contention, file-level transactions serialize while record-level ones interleave (§6.1)")
	return t, nil
}

func e7Run(level fit.LockLevel, workers int) (committed, timeouts, granted int64, wall string, err error) {
	met := metrics.NewSet()
	c, err := core.New(core.Config{Metrics: met, LT: 300 * time.Millisecond, MaxRenewals: 4})
	if err != nil {
		return 0, 0, 0, "", err
	}
	defer func() { _ = c.Close() }()
	c.StartSweeper(10 * time.Millisecond)

	// A shared file of 64 items x 2 KB (16 pages), so the three levels have
	// genuinely different conflict footprints: a record op touches 64 bytes,
	// a page op one of 16 pages, a file op everything.
	spec := workload.TxnSpec{
		OpsPerTxn: 4, UpdateBytes: 64, ReadFrac: 0.5,
		Items: 64, Theta: 0.6, ItemBytes: 2048,
	}
	setup, err := c.Txns.Begin(0)
	if err != nil {
		return 0, 0, 0, "", err
	}
	fid, err := c.Txns.Create(setup, fit.Attributes{Locking: level})
	if err != nil {
		return 0, 0, 0, "", err
	}
	if _, err := c.Txns.PWrite(setup, fid, 0, make([]byte, spec.Items*spec.ItemBytes)); err != nil {
		return 0, 0, 0, "", err
	}
	if err := c.Txns.End(setup); err != nil {
		return 0, 0, 0, "", err
	}

	// Fixed-duration run: each transaction holds its locks for ~1 ms of
	// "processing" before committing, so the levels' concurrency difference
	// surfaces as throughput (a file-level workload serializes completely).
	const runFor = 250 * time.Millisecond
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			for time.Since(start) < runFor {
				runOneTxn(c.Txns, fid, level, spec, rng, w)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	return met.Get(metrics.TxnCommitted) - 1, met.Get(metrics.TxnTimedOut),
		met.Get(metrics.LocksGranted), fmtDuration(elapsed), nil
}

// runOneTxn executes one generated transaction; aborts are absorbed (the
// harness measures throughput, not individual outcomes).
func runOneTxn(svc *txn.Service, fid txn.FileID, level fit.LockLevel, spec workload.TxnSpec, rng *rand.Rand, pid int) {
	id, err := svc.Begin(pid)
	if err != nil {
		return
	}
	if err := svc.Open(id, fid, level); err != nil {
		_ = svc.Abort(id)
		return
	}
	// Acquire items in canonical (sorted) order — the usual application
	// discipline that avoids self-inflicted deadlocks, leaving the LT
	// timeout for the genuinely adversarial cases (E9).
	ops := spec.NextTxn(rng)
	sort.Slice(ops, func(i, j int) bool { return ops[i].Offset < ops[j].Offset })
	for _, op := range ops {
		if op.Read {
			_, err = svc.PRead(id, fid, op.Offset, op.Length, true)
		} else {
			_, err = svc.PWrite(id, fid, op.Offset, make([]byte, op.Length))
		}
		if err != nil {
			if !errors.Is(err, txn.ErrAborted) {
				_ = svc.Abort(id)
			}
			return
		}
	}
	// Hold the locks across the transaction's "processing time"; strict 2PL
	// releases only at End (§6.2), so this is where granularity bites.
	time.Sleep(time.Millisecond)
	_ = svc.End(id)
}

// E9DeadlockTimeout reproduces §6.4: deadlocks are broken within N*LT;
// timeouts rise with load, and small LT penalizes long transactions.
func E9DeadlockTimeout() (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "Deadlock-prone cross-order transactions",
		Claim:   "every deadlock resolves within N*LT; abort rate rises with load and with smaller LT",
		Columns: []string{"LT", "pairs", "committed", "timeouts", "all resolved", "wall time"},
	}
	for _, lt := range []time.Duration{20 * time.Millisecond, 100 * time.Millisecond} {
		for _, pairs := range []int{2, 6} {
			committed, timeouts, resolved, wall, err := e9Run(lt, pairs)
			if err != nil {
				return nil, err
			}
			t.AddRow(fmtDuration(lt), pairs, committed, timeouts, resolved, wall)
		}
	}
	t.Notes = append(t.Notes, "no run hangs: the LT timeout guarantees progress (§6.4)")
	return t, nil
}

func e9Run(lt time.Duration, pairs int) (committed, timeouts int64, resolved bool, wall string, err error) {
	met := metrics.NewSet()
	c, err := core.New(core.Config{Metrics: met, LT: lt, MaxRenewals: 3})
	if err != nil {
		return 0, 0, false, "", err
	}
	defer func() { _ = c.Close() }()
	c.StartSweeper(lt / 4)

	// Two-item file, record locked.
	setup, err := c.Txns.Begin(0)
	if err != nil {
		return 0, 0, false, "", err
	}
	fid, err := c.Txns.Create(setup, fit.Attributes{Locking: fit.LockRecord})
	if err != nil {
		return 0, 0, false, "", err
	}
	if _, err := c.Txns.PWrite(setup, fid, 0, make([]byte, 256)); err != nil {
		return 0, 0, false, "", err
	}
	if err := c.Txns.End(setup); err != nil {
		return 0, 0, false, "", err
	}

	start := time.Now()
	var wg sync.WaitGroup
	runSeq := func(pid int, order []int) {
		defer wg.Done()
		id, err := c.Txns.Begin(pid)
		if err != nil {
			return
		}
		if err := c.Txns.Open(id, fid, fit.LockRecord); err != nil {
			_ = c.Txns.Abort(id)
			return
		}
		for _, item := range order {
			if _, err := c.Txns.PWrite(id, fid, int64(item*128), make([]byte, 64)); err != nil {
				return // aborted by timeout
			}
			time.Sleep(2 * time.Millisecond) // widen the deadlock window
		}
		_ = c.Txns.End(id)
	}
	a, b := workload.DeadlockPair(0, 1)
	for p := 0; p < pairs; p++ {
		wg.Add(2)
		go runSeq(2*p, a)
		go runSeq(2*p+1, b)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		resolved = true
	case <-time.After(30 * time.Second):
		resolved = false
	}
	return met.Get(metrics.TxnCommitted), met.Get(metrics.TxnTimedOut),
		resolved, fmtDuration(time.Since(start)), nil
}

// E12SplitLockTables reproduces §6.5: one lock table per granularity keeps
// each table small, so the linear record search is shorter.
func E12SplitLockTables() (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "Lock-table records examined per search",
		Claim:   "separate tables per level examine fewer records than one combined table",
		Columns: []string{"layout", "populated locks", "searches", "records examined", "records/search"},
	}
	for _, combined := range []bool{false, true} {
		name := "split (one table per level)"
		if combined {
			name = "combined (single table)"
		}
		locks, searches, steps, err := e12Run(combined)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, locks, searches, steps, float64(steps)/float64(searches))
	}
	t.Notes = append(t.Notes, "the combined table walks record and file items on every page search")
	return t, nil
}

func e12Run(combined bool) (locks int, searches int, steps int64, err error) {
	m := lock.New(lock.Config{Combined: combined, LT: time.Hour, MaxRenewals: 100})
	defer m.Close()
	// Populate: 300 locks per level on distinct files.
	const perLevel = 300
	txnID := lock.TxnID(1)
	for i := 0; i < perLevel; i++ {
		if err := m.Acquire(context.Background(), txnID, 0, lock.Record,
			lock.ItemID{File: uint64(10000 + i), Offset: 0, Length: 64}, lock.ReadOnly); err != nil {
			return 0, 0, 0, err
		}
		if err := m.Acquire(context.Background(), txnID, 0, lock.Page,
			lock.ItemID{File: uint64(20000 + i), Offset: 0}, lock.ReadOnly); err != nil {
			return 0, 0, 0, err
		}
		if err := m.Acquire(context.Background(), txnID, 0, lock.File,
			lock.ItemID{File: uint64(30000 + i)}, lock.ReadOnly); err != nil {
			return 0, 0, 0, err
		}
	}
	base := m.SearchSteps()
	const probes = 500
	for i := 0; i < probes; i++ {
		if _, err := m.TryAcquire(2, 0, lock.Page,
			lock.ItemID{File: uint64(20000 + i%perLevel), Offset: 1}, lock.ReadOnly); err != nil {
			return 0, 0, 0, err
		}
	}
	return 3 * perLevel, probes, m.SearchSteps() - base, nil
}
