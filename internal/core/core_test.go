package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/stable"
	"repro/internal/txn"
)

func newCluster(t *testing.T, mutate ...func(*Config)) *Cluster {
	t.Helper()
	cfg := Config{LT: 200 * time.Millisecond, MaxRenewals: 3}
	for _, m := range mutate {
		m(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestFigure1FullStack exercises every layer of the architecture through the
// public surface: naming, agents, basic file service, disk service.
func TestFigure1FullStack(t *testing.T) {
	c := newCluster(t)
	m, err := c.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	p := m.NewProcess()
	fa := m.FileAgent()

	// Client process -> file agent -> naming -> file service -> disk service.
	fd, err := fa.Create(p, "/reports/q3", fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("quarterly numbers")
	if _, err := fa.Write(p, fd, want); err != nil {
		t.Fatal(err)
	}
	if err := fa.Close(p, fd); err != nil {
		t.Fatal(err)
	}
	// A second machine resolves the same attributed name.
	m2, err := c.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	p2 := m2.NewProcess()
	fd2, err := m2.FileAgent().Open(p2, "/reports/q3")
	if err != nil {
		t.Fatal(err)
	}
	got, err := m2.FileAgent().Read(p2, fd2, 100)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("cross-machine read = %q, %v", got, err)
	}
	// Something actually hit the disk.
	if c.Metrics.Get(metrics.DiskReferences) == 0 {
		t.Fatal("no disk references recorded end to end")
	}
}

// TestFigure1TransactionPath exercises the transaction branch of Fig. 1:
// client -> transaction agent -> transaction service -> file service.
func TestFigure1TransactionPath(t *testing.T) {
	c := newCluster(t)
	m, err := c.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	p := m.NewProcess()
	id, err := p.TBegin()
	if err != nil {
		t.Fatal(err)
	}
	fd, err := p.TCreate(id, "/bank/ledger", fit.Attributes{Locking: fit.LockRecord})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.TPWrite(id, fd, 0, []byte("balance=100")); err != nil {
		t.Fatal(err)
	}
	if err := p.TEnd(id); err != nil {
		t.Fatal(err)
	}
	// The committed file is visible through the basic path.
	fa := m.FileAgent()
	fd2, err := fa.Open(p, "/bank/ledger")
	if err != nil {
		t.Fatal(err)
	}
	got, err := fa.Read(p, fd2, 100)
	if err != nil || string(got) != "balance=100" {
		t.Fatalf("committed content = %q, %v", got, err)
	}
	if c.Metrics.Get(metrics.TxnCommitted) != 1 {
		t.Fatal("commit not counted")
	}
}

func TestCrashRecoveryEndToEnd(t *testing.T) {
	c := newCluster(t)
	m, err := c.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	p := m.NewProcess()
	// Commit a transaction.
	id, err := p.TBegin()
	if err != nil {
		t.Fatal(err)
	}
	fd, err := p.TCreate(id, "/durable", fit.Attributes{Locking: fit.LockPage})
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("D"), 10000)
	if _, err := p.TPWrite(id, fd, 0, want); err != nil {
		t.Fatal(err)
	}
	if err := p.TEnd(id); err != nil {
		t.Fatal(err)
	}
	// Leave an uncommitted transaction hanging.
	id2, err := p.TBegin()
	if err != nil {
		t.Fatal(err)
	}
	fd2, err := p.TOpen(id2, "/durable", fit.LockNone)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.TPWrite(id2, fd2, 0, []byte("UNCOMMITTED")); err != nil {
		t.Fatal(err)
	}
	// Crash and recover.
	if err := c.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if _, err := c.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	// Committed data survives, tentative data is gone.
	e, err := c.Naming.ResolvePath("/durable")
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Files.ReadAt(fileservice.FileID(e.SystemName), 0, len(want))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("committed data after crash: %v", err)
	}
}

func TestDiskFailureSurvivedByStableStorage(t *testing.T) {
	c := newCluster(t)
	m, err := c.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	p := m.NewProcess()
	fa := m.FileAgent()
	fd, err := fa.Create(p, "/vital", fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fa.Write(p, fd, []byte("irreplaceable")); err != nil {
		t.Fatal(err)
	}
	if err := fa.Close(p, fd); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the FIT on the main disk; the stable copy must heal it.
	e, err := c.Naming.ResolvePath("/vital")
	if err != nil {
		t.Fatal(err)
	}
	_, fitAddr, err := c.Files.FITLocation(fileservice.FileID(e.SystemName))
	if err != nil {
		t.Fatal(err)
	}
	c.InvalidateCaches()
	if err := c.Device(0).CorruptFragment(fitAddr); err != nil {
		t.Fatal(err)
	}
	got, err := c.Files.ReadAt(fileservice.FileID(e.SystemName), 0, 13)
	if err != nil || string(got) != "irreplaceable" {
		t.Fatalf("read with corrupt FIT = %q, %v", got, err)
	}
}

func TestMultiDiskStriping(t *testing.T) {
	c := newCluster(t, func(cfg *Config) {
		cfg.Disks = 4
		cfg.Stripe = fileservice.Spread
		cfg.StripeUnitBlocks = 2
	})
	id, err := c.Files.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 32*fileservice.BlockSize)
	rand.New(rand.NewSource(1)).Read(data)
	if _, err := c.Files.WriteAt(id, 0, data); err != nil {
		t.Fatal(err)
	}
	exts, err := c.Files.Extents(id)
	if err != nil {
		t.Fatal(err)
	}
	used := map[uint16]bool{}
	for _, e := range exts {
		used[e.Disk] = true
	}
	if len(used) < 4 {
		t.Fatalf("striped file used %d disks, want 4", len(used))
	}
	// Per-disk clocks advanced on more than one disk (parallel transfer).
	busy := 0
	for _, d := range c.DiskTimes() {
		if d > 0 {
			busy++
		}
	}
	if busy < 4 {
		t.Fatalf("only %d disks accumulated time", busy)
	}
	if c.Makespan() == 0 {
		t.Fatal("zero makespan")
	}
}

// TestStopSweeperEndsTheSweep pins that StopSweeper ends the background
// sweep: a lock past its invulnerability is broken while the sweeper runs
// and left alone once StopSweeper has returned.
func TestStopSweeperEndsTheSweep(t *testing.T) {
	clk := simclock.New()
	c := newCluster(t, func(cfg *Config) { cfg.LT = 5 * time.Millisecond; cfg.MaxRenewals = 1; cfg.Clock = clk })
	locks, item := c.Locks(), lock.ItemID{File: 1}
	if err := locks.Acquire(context.Background(), 1, 0, lock.File, item, lock.IWrite); err != nil {
		t.Fatal(err)
	}
	c.StartSweeper(2 * time.Millisecond)
	clk.Advance(6 * time.Millisecond) // past one LT, three sweep periods
	if !locks.Broken(1) {
		t.Fatal("the running sweeper never broke the expired lock")
	}
	c.StopSweeper()
	locks.ReleaseAll(1)
	if err := locks.Acquire(context.Background(), 2, 0, lock.File, item, lock.IWrite); err != nil {
		t.Fatal(err)
	}
	clk.Advance(25 * time.Millisecond) // five LTs, a dozen sweep periods
	if locks.Broken(2) {
		t.Fatal("sweep ran after StopSweeper")
	}
	c.StopSweeper() // a second stop is a no-op
}

func TestDeadlockSweeperIntegration(t *testing.T) {
	c := newCluster(t, func(cfg *Config) { cfg.LT = 30 * time.Millisecond; cfg.MaxRenewals = 2 })
	c.StartSweeper(10 * time.Millisecond)
	m, err := c.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	p1 := m.NewProcess()
	p2 := m.NewProcess()
	// Two files.
	setup, err := p1.TBegin()
	if err != nil {
		t.Fatal(err)
	}
	fa, err := p1.TCreate(setup, "/da", fit.Attributes{Locking: fit.LockFile})
	if err != nil {
		t.Fatal(err)
	}
	fb, err := p1.TCreate(setup, "/db", fit.Attributes{Locking: fit.LockFile})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p1.TPWrite(setup, fa, 0, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := p1.TPWrite(setup, fb, 0, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := p1.TEnd(setup); err != nil {
		t.Fatal(err)
	}
	// Cross-order transactions.
	t1, err := p1.TBegin()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := p2.TBegin()
	if err != nil {
		t.Fatal(err)
	}
	f1a, err := p1.TOpen(t1, "/da", fit.LockFile)
	if err != nil {
		t.Fatal(err)
	}
	f2b, err := p2.TOpen(t2, "/db", fit.LockFile)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p1.TPWrite(t1, f1a, 0, []byte("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := p2.TPWrite(t2, f2b, 0, []byte("2")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	go func() {
		fd, err := p1.TOpen(t1, "/db", fit.LockFile)
		if err == nil {
			_, err = p1.TPWrite(t1, fd, 0, []byte("1"))
		}
		if err == nil {
			err = p1.TEnd(t1)
		} else {
			_ = p1.TAbort(t1)
		}
		done <- err
	}()
	go func() {
		fd, err := p2.TOpen(t2, "/da", fit.LockFile)
		if err == nil {
			_, err = p2.TPWrite(t2, fd, 0, []byte("2"))
		}
		if err == nil {
			err = p2.TEnd(t2)
		} else {
			_ = p2.TAbort(t2)
		}
		done <- err
	}()
	var aborted, committed int
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			switch {
			case err == nil:
				committed++
			case errors.Is(err, txn.ErrAborted), errors.Is(err, txn.ErrNoTxn):
				aborted++
			default:
				t.Fatalf("unexpected: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("deadlock not resolved")
		}
	}
	if aborted == 0 {
		t.Fatal("deadlock resolved with no abort?")
	}
}

func TestZeroConfigDefaults(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if c.Disks() != 1 {
		t.Fatalf("default disks = %d", c.Disks())
	}
	id, err := c.Files.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Files.WriteAt(id, 0, []byte("ok")); err != nil {
		t.Fatal(err)
	}
}

func TestCloseIdempotentFlushes(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Files.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Files.WriteAt(id, 0, []byte("bye")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestParityLayout runs the full stack over the rotating-parity array:
// writes and reads through the file service, a degraded read with one drive
// dead, a crash/remount, and an online rebuild back to full redundancy.
func TestParityLayout(t *testing.T) {
	c := newCluster(t, func(cfg *Config) {
		cfg.Disks = 5
		cfg.Layout = LayoutParity
		cfg.Geometry = device.Geometry{FragmentsPerTrack: 32, Tracks: 128} // 8 MB per disk
	})
	if c.Parity() == nil {
		t.Fatal("LayoutParity cluster has no parity array")
	}
	if got := c.Parity().StorageOverhead(); got != 1.25 {
		t.Fatalf("overhead %.2f, want 1.25", got)
	}

	data := make([]byte, 256<<10)
	rand.New(rand.NewSource(77)).Read(data)
	id, err := c.Files.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Files.WriteAt(id, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := c.Files.Flush(); err != nil {
		t.Fatal(err)
	}

	// Crash and remount: the FIT scan must rebuild the array's virtual
	// bitmap and the file must come back intact.
	if err := c.Crash(); err != nil {
		t.Fatal(err)
	}
	got, err := c.Files.ReadAt(id, 0, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("post-crash read mismatch (err %v)", err)
	}

	// Kill a drive mid-flight: the next cold read must auto-detect the
	// failure and reconstruct every lost unit.
	c.Device(3).Fail()
	c.InvalidateCaches()
	got, err = c.Files.ReadAt(id, 0, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("degraded read mismatch (err %v)", err)
	}
	if c.Parity().FailedDisk() != 3 {
		t.Fatalf("failed disk = %d, want 3", c.Parity().FailedDisk())
	}
	if c.Metrics.Get(metrics.ParityDegradedReads) == 0 {
		t.Fatal("no degraded reads counted")
	}

	// Writes continue while degraded.
	update := make([]byte, 32<<10)
	rand.New(rand.NewSource(78)).Read(update)
	if _, err := c.Files.WriteAt(id, 8192, update); err != nil {
		t.Fatal(err)
	}
	copy(data[8192:], update)
	if err := c.Files.Flush(); err != nil {
		t.Fatal(err)
	}

	// Repair the drive and rebuild online onto it.
	c.Device(3).Repair()
	if err := c.Parity().ReplaceDisk(3, c.DiskServer(3)); err != nil {
		t.Fatal(err)
	}
	if err := c.Parity().Rebuild(); err != nil {
		t.Fatal(err)
	}
	if c.Parity().Degraded() {
		t.Fatal("still degraded after rebuild")
	}
	c.InvalidateCaches()
	got, err = c.Files.ReadAt(id, 0, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("post-rebuild read mismatch (err %v)", err)
	}
	bad, err := c.Parity().CheckParity()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("parity invariant violated on stripes %v", bad)
	}
}

// TestCrashInDeferredFITWrite crashes a create inside its FIT's stable write.
// A FIT's stable copy is the deferred flavour of put-block, and a deferred
// write runs on its caller, so the crash dies in Create under fault.Run: once
// before either stable copy is written, once between the primary and the
// mirror copy. After Crash, StableRecoverAll and Recover the file service
// must check clean, with every create acknowledged before the crash listed
// and readable.
func TestCrashInDeferredFITWrite(t *testing.T) {
	const files, strike = 8, 5 // strike is the create the crash lands in

	// cycle creates, writes and closes file i; creating is set while Create
	// runs.
	cycle := func(c *Cluster, i int, creating *bool) (fileservice.FileID, []byte, error) {
		*creating = true
		id, err := c.Files.Create(fit.Attributes{})
		*creating = false
		if err != nil {
			return 0, nil, err
		}
		data := bytes.Repeat([]byte{byte('a' + i)}, 100+300*i)
		if err := c.Files.Open(id); err != nil {
			return 0, nil, err
		}
		if _, err := c.Files.WriteAt(id, 0, data); err != nil {
			return 0, nil, err
		}
		return id, data, c.Files.Close(id) // delayed write: Close makes it durable
	}

	// A dry run counts the deferred writes made before each create: an
	// action that tears nothing off a one-fragment write and fires on every
	// deferred primary write is a counter.
	probe := fault.NewInjector(1)
	dry := newCluster(t, func(cfg *Config) { cfg.Fault = probe })
	probe.Arm(stable.PtDeferredPrimary, fault.Action{Kind: fault.KindTorn, Frags: 1, Times: -1})
	var creating bool
	before := make([]int, files)
	for i := 0; i < files; i++ {
		before[i] = probe.Fired(stable.PtDeferredPrimary)
		if _, _, err := cycle(dry, i, &creating); err != nil {
			t.Fatal(err)
		}
	}
	k := before[strike]
	if probe.Fired(stable.PtDeferredPrimary) <= k {
		t.Fatalf("create %d made no deferred stable write", strike)
	}

	for _, pt := range []fault.Point{stable.PtDeferredPrimary, stable.PtDeferredMirror} {
		t.Run(string(pt), func(t *testing.T) {
			inj := fault.NewInjector(2)
			c := newCluster(t, func(cfg *Config) { cfg.Fault = inj })
			// An empty torn prefix plus a crash: the copy at pt is never
			// written.
			inj.Arm(pt, fault.Action{Kind: fault.KindTorn, Crash: true, After: k})
			acked := map[fileservice.FileID][]byte{}
			var creating bool
			crashed, err := fault.Run(func() error {
				for i := 0; i < files; i++ {
					id, data, err := cycle(c, i, &creating)
					if err != nil {
						return err
					}
					acked[id] = data
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if crashed == nil || crashed.Point != pt || !creating || len(acked) != strike {
				t.Fatalf("crash = %v after %d creates (creating=%v), want one at %s inside create %d",
					crashed, len(acked), creating, pt, strike)
			}
			inj.DisarmAll()

			if err := c.Crash(); err != nil {
				t.Fatalf("Crash: %v", err)
			}
			reps, err := c.StableRecoverAll()
			if err != nil {
				t.Fatal(err)
			}
			healed := 0
			for _, rep := range reps {
				healed += rep.DivergenceHealed
			}
			if pt == stable.PtDeferredMirror && healed == 0 {
				t.Fatal("a crash between the careful writes left no divergence to heal")
			}
			if _, err := c.Recover(); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			rep, err := c.Files.Check()
			if err != nil || !rep.Ok() {
				t.Fatalf("Check: %v %v", err, rep.Problems)
			}
			listed, err := c.Files.List()
			if err != nil {
				t.Fatal(err)
			}
			seen := map[fileservice.FileID]bool{}
			for _, id := range listed {
				seen[id] = true
			}
			for id, want := range acked {
				if !seen[id] {
					t.Fatalf("acknowledged file %d not listed after recovery", id)
				}
				got, err := c.Files.ReadAt(id, 0, len(want))
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("acknowledged file %d lost or damaged: %v", id, err)
				}
			}
		})
	}
}
