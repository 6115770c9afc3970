package txn

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/fit"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/polltest"
	"repro/internal/simclock"
	"repro/internal/stable"
)

// startTxns begins W transactions, each with its own record-locked file and
// a distinct payload, ready for the concurrent End calls under test.
func startTxns(r *rig, w int) (ids []TxnID, fids []FileID, payloads [][]byte) {
	for i := 0; i < w; i++ {
		id, fid := r.beginWithFile(fit.LockRecord)
		ids = append(ids, id)
		fids = append(fids, fid)
		payloads = append(payloads, []byte(fmt.Sprintf("group-commit payload %d", i)))
	}
	return ids, fids, payloads
}

func TestGroupCommitBatchesConcurrentCommits(t *testing.T) {
	inj := fault.NewInjector(1)
	r := newRig(t, func(c *Config) { c.Fault = inj })
	const W = 8
	ids, fids, payloads := startTxns(r, W)
	// Hold the first leader just before its sync: every other committer
	// appends during the delay and piles into the next batch, so the run
	// deterministically forms at least one multi-member batch.
	inj.Arm(PtGroupBeforeSync, fault.Action{Kind: fault.KindDelay, Delay: 50 * time.Millisecond})

	start := make(chan struct{})
	errs := make([]error, W)
	var wg sync.WaitGroup
	for i := 0; i < W; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if _, err := r.svc.PWrite(ids[i], fids[i], 0, payloads[i]); err != nil {
				errs[i] = err
				return
			}
			errs[i] = r.svc.End(ids[i])
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if syncs := r.met.Get(metrics.WalSyncs); syncs >= W {
		t.Fatalf("group commit issued %d syncs for %d commits; want fewer barriers than commits", syncs, W)
	}
	if b := r.met.Get(metrics.TxnGroupBatches); b < 1 {
		t.Fatalf("no group batch recorded (batches=%d)", b)
	}
	if waits := r.met.Get(metrics.TxnGroupWaits); waits < 1 {
		t.Fatalf("no committer ever parked as a follower (waits=%d)", waits)
	}

	// Every commit must be durable: crash, recover, read back.
	inj.DisarmAll()
	r.crash()
	if _, err := r.svc.Recover(); err != nil {
		t.Fatal(err)
	}
	for i, fid := range fids {
		got, err := r.fs.ReadAt(fid, 0, len(payloads[i]))
		if err != nil || !bytes.Equal(got, payloads[i]) {
			t.Fatalf("file %d after recovery: %q, %v; want %q", fid, got, err, payloads[i])
		}
	}
}

func TestGroupCommitDisabledOneSyncPerCommit(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Group.Disable = true })
	const N = 4
	base := r.met.Get(metrics.WalSyncs)
	for i := 0; i < N; i++ {
		id, fid := r.beginWithFile(fit.LockRecord)
		if _, err := r.svc.PWrite(id, fid, 0, []byte("solo")); err != nil {
			t.Fatal(err)
		}
		if err := r.svc.End(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.met.Get(metrics.WalSyncs) - base; got != N {
		t.Fatalf("disabled group commit issued %d syncs for %d commits; want exactly one barrier each", got, N)
	}
	if b := r.met.Get(metrics.TxnGroupBatches); b != 0 {
		t.Fatalf("baseline recorded %d group batches; want 0", b)
	}
}

// TestTruncationWaitsForUnapplied pins the batch-truncation window: the log
// must not be truncated while any batched commit's records are durable but
// its intentions are not yet applied in place (or its committer was left
// interrupted by a crashed leader) — truncating then would lose the only
// copy redo depends on.
func TestTruncationWaitsForUnapplied(t *testing.T) {
	r := newRig(t)
	// Another transaction somewhere in the pipeline: committed, not applied.
	r.svc.gc.mu.Lock()
	r.svc.gc.unapplied++
	r.svc.gc.mu.Unlock()

	// Push the log past half capacity so End wants to truncate.
	id, fid := r.beginWithFile(fit.LockPage)
	big := bytes.Repeat([]byte{0xAB}, 300<<10) // capacity 512 KB, threshold 256 KB
	if _, err := r.svc.PWrite(id, fid, 0, big); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.End(id); err != nil {
		t.Fatal(err)
	}
	if r.log.AppendedBytes() == 0 {
		t.Fatal("log truncated while a batched commit was still unapplied")
	}

	// Once the straggler applies, truncation proceeds.
	r.svc.gc.applied()
	r.svc.maybeTruncateLog()
	if got := r.log.AppendedBytes(); got != 0 {
		t.Fatalf("quiescent log not truncated: %d bytes still appended", got)
	}
}

// TestGroupLeaderCrashAfterSync kills a batch leader right after its Sync
// succeeded, before any follower is woken. Followers observe
// ErrCommitInterrupted — the outcome is unknown to them — yet recovery must
// find the entire batch durable, because the barrier completed.
func TestGroupLeaderCrashAfterSync(t *testing.T) {
	inj := fault.NewInjector(2)
	withFault := func(c *Config) { c.Fault = inj }
	r := newRig(t, withFault)
	const W = 4
	ids, fids, payloads := startTxns(r, W)
	// Delay the first leader so the remaining committers form one batch
	// behind it, then crash that batch's leader after its sync (After: 1
	// skips the first leader's own post-sync hit). The others start once
	// the first leader is in its delay, its batch closed: started together,
	// they could all join its batch before it closed, and no second leader
	// would sync.
	inj.Arm(PtGroupBeforeSync, fault.Action{Kind: fault.KindDelay, Delay: 50 * time.Millisecond})
	inj.Arm(PtGroupLeaderSynced, fault.Action{Kind: fault.KindCrash, After: 1})
	delaying := make(chan struct{})
	inj.SetObserver(func(ev fault.Event) {
		if ev.Point == PtGroupBeforeSync {
			close(delaying) // the delay fires once
		}
	})

	errs := make([]error, W)
	crashes := make([]*fault.Crash, W)
	var wg sync.WaitGroup
	for i := 0; i < W; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i > 0 {
				<-delaying
			}
			crashes[i], errs[i] = fault.Run(func() error {
				if _, err := r.svc.PWrite(ids[i], fids[i], 0, payloads[i]); err != nil {
					return err
				}
				return r.svc.End(ids[i])
			})
		}(i)
	}
	wg.Wait()

	nCrashed, nInterrupted := 0, 0
	for i := range errs {
		switch {
		case crashes[i] != nil:
			nCrashed++
		case errs[i] == nil:
		case errors.Is(errs[i], ErrCommitInterrupted):
			nInterrupted++
		default:
			t.Fatalf("worker %d: unexpected error %v", i, errs[i])
		}
	}
	if nCrashed != 1 {
		t.Fatalf("crashed workers = %d; want exactly the batch leader", nCrashed)
	}
	if nInterrupted < 1 {
		t.Fatalf("no follower saw ErrCommitInterrupted (interrupted=%d)", nInterrupted)
	}

	// The leader synced before dying: after recovery every member of every
	// batch — crashed, interrupted, and successful alike — is durable.
	inj.DisarmAll()
	r.crash(withFault)
	if _, err := r.svc.Recover(); err != nil {
		t.Fatal(err)
	}
	for i, fid := range fids {
		got, err := r.fs.ReadAt(fid, 0, len(payloads[i]))
		if err != nil || !bytes.Equal(got, payloads[i]) {
			t.Fatalf("file %d after leader crash + recovery: %q, %v; want %q", fid, got, err, payloads[i])
		}
	}
}

// TestGroupSyncFailureFailsAllPendingBatches pins the multi-batch failure
// window: while leader A's sync is in flight, a full batch B and an open
// batch C both form behind the barrier. When A's sync fails, DropUnsynced
// discards B's and C's records along with A's, so every member of every
// batch must see the failure — in particular B, which is neither the
// failing batch nor the open cur, must not be acknowledged with a nil
// commit (its records are gone; a nil return would be an ack with no
// durable WAL record behind it).
func TestGroupSyncFailureFailsAllPendingBatches(t *testing.T) {
	inj := fault.NewInjector(3)
	r := newRig(t, func(c *Config) {
		c.Fault = inj
		c.Group.MaxBatch = 2
	})
	const W = 4
	ids, fids, payloads := startTxns(r, W)

	// Hold leader A just before its sync so the other committers pile up
	// behind the in-flight barrier, then fail that one sync at the stable
	// store under the log.
	inj.Arm(PtGroupBeforeSync, fault.Action{Kind: fault.KindDelay, Delay: 500 * time.Millisecond})
	inj.Arm(stable.PtWritePrimary, fault.Action{Kind: fault.KindError, Err: device.ErrFailed})

	errs := make([]error, W)
	var wg sync.WaitGroup
	commit := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.svc.PWrite(ids[i], fids[i], 0, payloads[i]); err != nil {
				errs[i] = err
				return
			}
			errs[i] = r.svc.End(ids[i])
		}()
	}
	waitGC := func(what string, cond func() bool) {
		t.Helper()
		polltest.Until(t, what, func() bool {
			r.svc.gc.mu.Lock()
			defer r.svc.gc.mu.Unlock()
			return cond()
		})
	}

	commit(0)
	waitGC("leader A in flight", func() bool { return r.svc.gc.syncing && r.svc.gc.cur == nil })
	commit(1)
	commit(2)
	waitGC("batch B full", func() bool { return r.svc.gc.cur != nil && r.svc.gc.cur.size == 2 })
	r.svc.gc.mu.Lock()
	b := r.svc.gc.cur
	r.svc.gc.mu.Unlock()
	commit(3)
	waitGC("batch C open behind full B", func() bool { return r.svc.gc.cur != nil && r.svc.gc.cur != b })
	wg.Wait()

	for i, err := range errs {
		if err == nil {
			t.Fatalf("worker %d acknowledged as committed after its batch's records were dropped", i)
		}
	}
	// Every failed commit retired its unapplied slot, so the pipeline is
	// quiescent again.
	r.svc.gc.mu.Lock()
	unapplied := r.svc.gc.unapplied
	r.svc.gc.mu.Unlock()
	if unapplied != 0 {
		t.Fatalf("unapplied = %d after all batches failed; want 0", unapplied)
	}
	// No acknowledged commit means nothing durable: crash, recover, verify.
	inj.DisarmAll()
	r.crash()
	if n, err := r.svc.Recover(); err != nil || n != 0 {
		t.Fatalf("Recover = %d, %v; want 0 committed transactions", n, err)
	}
	for i, fid := range fids {
		if got, err := r.fs.ReadAt(fid, 0, len(payloads[i])); err == nil && len(got) > 0 {
			t.Fatalf("file %d holds %q after a failed group sync; want nothing durable", fid, got)
		}
	}
	// The service survives the failure: a fresh commit goes through.
	id, fid := r.beginWithFile(fit.LockRecord)
	want := []byte("after failed batch")
	if _, err := r.svc.PWrite(id, fid, 0, want); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.End(id); err != nil {
		t.Fatalf("commit after failed group sync: %v", err)
	}
	got, err := r.fs.ReadAt(fid, 0, len(want))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("post-failure commit = %q, %v; want %q", got, err, want)
	}
}

// TestCommitLargerThanLogAborts covers the append-rollback path: a
// transaction whose records cannot fit even an empty log backs its partial
// tail out, aborts cleanly, and leaves the service usable.
func TestCommitLargerThanLogAborts(t *testing.T) {
	r := newRig(t)
	id, fid := r.beginWithFile(fit.LockPage)
	huge := bytes.Repeat([]byte{0xCD}, 600<<10) // > 512 KB log capacity
	if _, err := r.svc.PWrite(id, fid, 0, huge); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.End(id); !errors.Is(err, ErrAborted) {
		t.Fatalf("End of oversized commit: %v; want ErrAborted", err)
	}
	// The rollback left no poison behind: a normal commit still works.
	id2, fid2 := r.beginWithFile(fit.LockRecord)
	want := []byte("after oversized abort")
	if _, err := r.svc.PWrite(id2, fid2, 0, want); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.End(id2); err != nil {
		t.Fatal(err)
	}
	got, err := r.fs.ReadAt(fid2, 0, len(want))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("post-abort commit: %q, %v; want %q", got, err, want)
	}
}

// TestLingerWaitsOnTheLockClock: a leader whose batch is below MaxBatch
// holds it open MaxDelay on the lock manager's clock, then syncs it alone.
func TestLingerWaitsOnTheLockClock(t *testing.T) {
	clk := simclock.New()
	r := newRig(t, withLocks(lock.Config{Clock: clk}), func(c *Config) {
		c.Group = GroupCommitConfig{MaxBatch: 4, MaxDelay: time.Second}
	})
	id, fid := r.beginWithFile(fit.LockRecord)
	if _, err := r.svc.PWrite(id, fid, 0, []byte("lingered")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- r.svc.End(id) }()
	clk.WaitTimers(1)
	clk.Advance(time.Second - 1)
	select {
	case err := <-done:
		t.Fatalf("commit returned (%v) inside its linger", err)
	default:
	}
	clk.Advance(1)
	if err := polltest.Recv(t, done, "the commit after its linger"); err != nil {
		t.Fatal(err)
	}
}
