package txn

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/diskservice"
	"repro/internal/fault"
	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/intentions"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/polltest"
	"repro/internal/stable"
	"repro/internal/wal"
)

// rig is a full substrate: devices, disk server, file service, WAL, txn
// service — rebuildable to simulate a machine crash.
type rig struct {
	t        *testing.T
	met      *metrics.Set
	inj      *fault.Injector
	dev      *device.Disk
	stDev    [2]*device.Disk
	logDev   [2]*device.Disk
	st       *stable.Store
	logSt    *stable.Store
	disk     *diskservice.Server
	fs       *fileservice.Service
	log      *wal.Log
	logStart int
	svc      *Service
}

func newRig(t *testing.T, mutate ...func(*Config)) *rig {
	t.Helper()
	r := &rig{t: t, met: metrics.NewSet()}
	// Surface the test's fault injector (when the mutations install one) to
	// the log's stable store and the log itself, so tests can fail a
	// wal.Sync at the storage layer, not only crash at the txn-layer points.
	var probe Config
	for _, m := range mutate {
		m(&probe)
	}
	r.inj = probe.Fault
	g := device.Geometry{FragmentsPerTrack: 32, Tracks: 128}
	var err error
	r.dev, err = device.New(g, device.WithMetrics(r.met))
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.stDev {
		r.stDev[i], err = device.New(g)
		if err != nil {
			t.Fatal(err)
		}
	}
	lg := device.Geometry{FragmentsPerTrack: 32, Tracks: 32} // 2 MB log pair
	for i := range r.logDev {
		r.logDev[i], err = device.New(lg)
		if err != nil {
			t.Fatal(err)
		}
	}
	r.st, err = stable.NewStore(r.stDev[0], r.stDev[1], stable.WithMetrics(r.met))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.st.Close() })
	r.logSt, err = stable.NewStore(r.logDev[0], r.logDev[1], stable.WithMetrics(r.met), stable.WithFault(r.inj))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.logSt.Close() })
	r.disk, err = diskservice.Format(diskservice.Config{Disk: r.dev, Stable: r.st, Metrics: r.met})
	if err != nil {
		t.Fatal(err)
	}
	r.fs, err = fileservice.New(fileservice.Config{Disks: fileservice.Servers(r.disk), Metrics: r.met})
	if err != nil {
		t.Fatal(err)
	}
	r.logStart, err = r.logSt.Allocate(256) // 512 KB log
	if err != nil {
		t.Fatal(err)
	}
	r.log, err = wal.Open(r.logSt, r.logStart, 256, wal.WithMetrics(r.met), wal.WithFault(r.inj))
	if err != nil {
		t.Fatal(err)
	}
	r.buildService(mutate...)
	return r
}

func (r *rig) buildService(mutate ...func(*Config)) {
	cfg := Config{Files: r.fs, Log: r.log, Metrics: r.met}
	for _, m := range mutate {
		m(&cfg)
	}
	if cfg.Locks == nil {
		withLocks(lock.Config{LT: 50 * time.Millisecond, MaxRenewals: 3})(&cfg)
	}
	svc, err := New(cfg)
	if err != nil {
		r.t.Fatal(err)
	}
	r.svc = svc
	r.t.Cleanup(cfg.Locks.Close)
}

// withLocks gives the service a lock manager built from lc, reporting to the
// service's metric set.
func withLocks(lc lock.Config) func(*Config) {
	return func(c *Config) {
		lc.Metrics = c.Metrics
		c.Locks = lock.New(lc)
	}
}

// crash simulates a machine crash and restart: volatile caches are lost, the
// disks survive, and everything is remounted.
func (r *rig) crash(mutate ...func(*Config)) {
	r.t.Helper()
	r.svc.Locks().Close()
	// Volatile state dies with the machine.
	r.fs.InvalidateCaches()
	// Remount the world from the surviving media.
	disk, err := diskservice.Mount(diskservice.Config{Disk: r.dev, Stable: r.st, Metrics: r.met})
	if err != nil {
		r.t.Fatalf("remount disk: %v", err)
	}
	r.disk = disk
	fs, err := fileservice.Mount(fileservice.Config{Disks: fileservice.Servers(disk), Metrics: r.met})
	if err != nil {
		r.t.Fatalf("remount fs: %v", err)
	}
	r.fs = fs
	log, err := wal.Open(r.logSt, r.logStart, 256, wal.WithMetrics(r.met), wal.WithFault(r.inj))
	if err != nil {
		r.t.Fatal(err)
	}
	r.log = log
	r.buildService(mutate...)
}

// begin starts a txn and opens a fresh file at the given level.
func (r *rig) beginWithFile(level fit.LockLevel) (TxnID, FileID) {
	r.t.Helper()
	id, err := r.svc.Begin(1)
	if err != nil {
		r.t.Fatal(err)
	}
	fid, err := r.svc.Create(id, fit.Attributes{Locking: level})
	if err != nil {
		r.t.Fatal(err)
	}
	return id, fid
}

func TestCommitMakesWritesVisible(t *testing.T) {
	r := newRig(t)
	id, fid := r.beginWithFile(fit.LockPage)
	want := []byte("transactional hello")
	if _, err := r.svc.PWrite(id, fid, 0, want); err != nil {
		t.Fatal(err)
	}
	// Before commit, the committed file is empty.
	base, err := r.fs.ReadAt(fid, 0, 100)
	if err != nil || len(base) != 0 {
		t.Fatalf("tentative data visible before commit: %q, %v", base, err)
	}
	// But the transaction reads its own writes.
	got, err := r.svc.PRead(id, fid, 0, len(want), false)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("own-write read = %q, %v", got, err)
	}
	if err := r.svc.End(id); err != nil {
		t.Fatal(err)
	}
	got2, err := r.fs.ReadAt(fid, 0, len(want))
	if err != nil || !bytes.Equal(got2, want) {
		t.Fatalf("committed data = %q, %v", got2, err)
	}
	if r.met.Get(metrics.TxnCommitted) != 1 {
		t.Fatal("commit counter not incremented")
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	r := newRig(t)
	// Commit a baseline first.
	id, fid := r.beginWithFile(fit.LockPage)
	if _, err := r.svc.PWrite(id, fid, 0, []byte("baseline")); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.End(id); err != nil {
		t.Fatal(err)
	}
	// Modify and abort.
	id2, err := r.svc.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Open(id2, fid, fit.LockNone); err != nil {
		t.Fatal(err)
	}
	if _, err := r.svc.PWrite(id2, fid, 0, []byte("OVERWRITE")); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Abort(id2); err != nil {
		t.Fatal(err)
	}
	got, err := r.fs.ReadAt(fid, 0, 8)
	if err != nil || string(got) != "baseline" {
		t.Fatalf("post-abort content = %q, %v", got, err)
	}
	// The aborted txn is gone.
	if _, err := r.svc.PRead(id2, fid, 0, 1, false); !errors.Is(err, ErrNoTxn) && !errors.Is(err, ErrAborted) {
		t.Fatalf("op on aborted txn = %v", err)
	}
}

func TestCreateAbortRemovesFile(t *testing.T) {
	r := newRig(t)
	id, fid := r.beginWithFile(fit.LockPage)
	if err := r.svc.Abort(id); err != nil {
		t.Fatal(err)
	}
	if _, err := r.fs.Attributes(fid); !errors.Is(err, fileservice.ErrNotFound) {
		t.Fatalf("aborted tcreate left the file: %v", err)
	}
}

func TestDeleteAppliesAtCommitOnly(t *testing.T) {
	r := newRig(t)
	id, fid := r.beginWithFile(fit.LockFile)
	if _, err := r.svc.PWrite(id, fid, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.End(id); err != nil {
		t.Fatal(err)
	}
	// Delete under a txn, abort: file survives.
	id2, err := r.svc.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Open(id2, fid, fit.LockFile); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Delete(id2, fid); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Abort(id2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.fs.Attributes(fid); err != nil {
		t.Fatalf("file gone after aborted tdelete: %v", err)
	}
	// Delete and commit: file gone.
	id3, err := r.svc.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Open(id3, fid, fit.LockFile); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Delete(id3, fid); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.End(id3); err != nil {
		t.Fatal(err)
	}
	if _, err := r.fs.Attributes(fid); !errors.Is(err, fileservice.ErrNotFound) {
		t.Fatalf("file survives committed tdelete: %v", err)
	}
}

func TestCursorReadWriteLSeek(t *testing.T) {
	r := newRig(t)
	id, fid := r.beginWithFile(fit.LockPage)
	if _, err := r.svc.Write(id, fid, []byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.svc.Write(id, fid, []byte("world")); err != nil {
		t.Fatal(err)
	}
	if pos, err := r.svc.LSeek(id, fid, 0, SeekSet); err != nil || pos != 0 {
		t.Fatalf("LSeek = %d, %v", pos, err)
	}
	got, err := r.svc.Read(id, fid, 11, false)
	if err != nil || string(got) != "hello world" {
		t.Fatalf("Read = %q, %v", got, err)
	}
	if pos, err := r.svc.LSeek(id, fid, -5, SeekEnd); err != nil || pos != 6 {
		t.Fatalf("LSeek(End,-5) = %d, %v", pos, err)
	}
	got, err = r.svc.Read(id, fid, 5, false)
	if err != nil || string(got) != "world" {
		t.Fatalf("Read after seek = %q, %v", got, err)
	}
	if pos, err := r.svc.LSeek(id, fid, -2, SeekCur); err != nil || pos != 9 {
		t.Fatalf("LSeek(Cur,-2) = %d, %v", pos, err)
	}
	if _, err := r.svc.LSeek(id, fid, 0, 99); !errors.Is(err, ErrBadWhence) {
		t.Fatalf("bad whence = %v", err)
	}
	if _, err := r.svc.LSeek(id, fid, -100, SeekSet); !errors.Is(err, fileservice.ErrBadOffset) {
		t.Fatalf("negative seek = %v", err)
	}
	attr, err := r.svc.GetAttribute(id, fid)
	if err != nil || attr.Size != 11 {
		t.Fatalf("GetAttribute size = %d, %v", attr.Size, err)
	}
	if err := r.svc.End(id); err != nil {
		t.Fatal(err)
	}
}

func TestIsolationPageLevel(t *testing.T) {
	r := newRig(t)
	id, fid := r.beginWithFile(fit.LockPage)
	if _, err := r.svc.PWrite(id, fid, 0, []byte("AAAA")); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.End(id); err != nil {
		t.Fatal(err)
	}
	// Writer holds an IWrite on page 0.
	w, err := r.svc.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Open(w, fid, fit.LockNone); err != nil {
		t.Fatal(err)
	}
	if _, err := r.svc.PWrite(w, fid, 0, []byte("BBBB")); err != nil {
		t.Fatal(err)
	}
	// A reader's access to page 0 blocks until the writer ends.
	rd, err := r.svc.Begin(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Open(rd, fid, fit.LockNone); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct {
		data []byte
		err  error
	}, 1)
	waits := r.met.Get(metrics.LockWaits)
	go func() {
		d, err := r.svc.PRead(rd, fid, 0, 4, false)
		done <- struct {
			data []byte
			err  error
		}{d, err}
	}()
	polltest.Until(t, "the reader to wait on the writer's IWrite", func() bool { return r.met.Get(metrics.LockWaits) > waits })
	if err := r.svc.End(w); err != nil {
		t.Fatal(err)
	}
	if res := polltest.Recv(t, done, "the reader after the commit"); res.err != nil || string(res.data) != "BBBB" {
		t.Fatalf("reader after writer commit = %q, %v", res.data, res.err)
	}
	if err := r.svc.End(rd); err != nil {
		t.Fatal(err)
	}
}

func TestRecordLevelDisjointRangesConcurrent(t *testing.T) {
	r := newRig(t)
	id, fid := r.beginWithFile(fit.LockRecord)
	if _, err := r.svc.PWrite(id, fid, 0, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.End(id); err != nil {
		t.Fatal(err)
	}
	// Two transactions write disjoint ranges; neither blocks.
	t1, err := r.svc.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := r.svc.Begin(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Open(t1, fid, fit.LockRecord); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Open(t2, fid, fit.LockRecord); err != nil {
		t.Fatal(err)
	}
	if _, err := r.svc.PWrite(t1, fid, 0, []byte("11111")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.svc.PWrite(t2, fid, 50, []byte("22222")); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.End(t1); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.End(t2); err != nil {
		t.Fatal(err)
	}
	got, err := r.fs.ReadAt(fid, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:5]) != "11111" || string(got[50:55]) != "22222" {
		t.Fatalf("record-level commits lost: %q ... %q", got[:5], got[50:55])
	}
}

func TestWALTechniquePreservesContiguity(t *testing.T) {
	r := newRig(t, func(c *Config) { c.ForceTechnique = intentions.WAL })
	id, fid := r.beginWithFile(fit.LockPage)
	if _, err := r.svc.PWrite(id, fid, 0, make([]byte, 4*fileservice.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.End(id); err != nil {
		t.Fatal(err)
	}
	extsBefore, _, err := r.fs.ContiguityProfile(fid)
	if err != nil {
		t.Fatal(err)
	}
	// Update a middle block transactionally.
	id2, err := r.svc.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Open(id2, fid, fit.LockNone); err != nil {
		t.Fatal(err)
	}
	if _, err := r.svc.PWrite(id2, fid, fileservice.BlockSize, bytes.Repeat([]byte("W"), fileservice.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.End(id2); err != nil {
		t.Fatal(err)
	}
	extsAfter, _, err := r.fs.ContiguityProfile(fid)
	if err != nil {
		t.Fatal(err)
	}
	if extsAfter != extsBefore {
		t.Fatalf("WAL commit changed contiguity: %d -> %d extents (§6.7 says it must not)", extsBefore, extsAfter)
	}
	got, err := r.fs.ReadAt(fid, fileservice.BlockSize, 4)
	if err != nil || string(got) != "WWWW" {
		t.Fatalf("WAL-committed data = %q, %v", got, err)
	}
}

func TestShadowTechniqueBreaksContiguity(t *testing.T) {
	r := newRig(t, func(c *Config) { c.ForceTechnique = intentions.ShadowPage })
	id, fid := r.beginWithFile(fit.LockPage)
	if _, err := r.svc.PWrite(id, fid, 0, make([]byte, 4*fileservice.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.End(id); err != nil {
		t.Fatal(err)
	}
	extsBefore, _, err := r.fs.ContiguityProfile(fid)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := r.svc.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Open(id2, fid, fit.LockNone); err != nil {
		t.Fatal(err)
	}
	if _, err := r.svc.PWrite(id2, fid, fileservice.BlockSize, bytes.Repeat([]byte("S"), fileservice.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.End(id2); err != nil {
		t.Fatal(err)
	}
	extsAfter, _, err := r.fs.ContiguityProfile(fid)
	if err != nil {
		t.Fatal(err)
	}
	if extsAfter <= extsBefore {
		t.Fatalf("shadow commit kept contiguity: %d -> %d extents (§6.7 says it destroys it)", extsBefore, extsAfter)
	}
	got, err := r.fs.ReadAt(fid, fileservice.BlockSize, 4)
	if err != nil || string(got) != "SSSS" {
		t.Fatalf("shadow-committed data = %q, %v", got, err)
	}
}

func TestDefaultTechniqueFollowsContiguityRule(t *testing.T) {
	r := newRig(t)
	// A fresh sequentially written file is contiguous -> WAL keeps it so.
	id, fid := r.beginWithFile(fit.LockPage)
	if _, err := r.svc.PWrite(id, fid, 0, make([]byte, 3*fileservice.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.End(id); err != nil {
		t.Fatal(err)
	}
	before, _, _ := r.fs.ContiguityProfile(fid)
	if before != 1 {
		t.Skipf("file not contiguous after create (%d extents)", before)
	}
	id2, _ := r.svc.Begin(1)
	if err := r.svc.Open(id2, fid, fit.LockNone); err != nil {
		t.Fatal(err)
	}
	if _, err := r.svc.PWrite(id2, fid, 0, []byte("update")); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.End(id2); err != nil {
		t.Fatal(err)
	}
	after, _, _ := r.fs.ContiguityProfile(fid)
	if after != 1 {
		t.Fatalf("contiguous file fragmented by default-rule commit: %d extents", after)
	}
}

// newCrashAfterLogRig is a rig whose service can be killed at the commit
// point with crashAfterLog.
func newCrashAfterLogRig(t *testing.T) *rig {
	inj := fault.NewInjector(1)
	return newRig(t, func(c *Config) { c.Fault = inj })
}

// crashAfterLog runs End with a crash armed at the commit point: the commit
// record is durable, no intention is applied.
func (r *rig) crashAfterLog(id TxnID) {
	r.t.Helper()
	r.inj.Arm(PtCommitAfterLog, fault.Action{Kind: fault.KindCrash})
	crashed, err := fault.Run(func() error { return r.svc.End(id) })
	if crashed == nil || crashed.Point != PtCommitAfterLog {
		r.t.Fatalf("End with a crash armed after the log = %v, %v; want a crash at %s", crashed, err, PtCommitAfterLog)
	}
}

// seedFiles commits n files of size bytes each (all 'o') at the given lock
// level and returns their names.
func (r *rig) seedFiles(n, size int, level fit.LockLevel) []FileID {
	r.t.Helper()
	id, err := r.svc.Begin(1)
	if err != nil {
		r.t.Fatal(err)
	}
	fids := make([]FileID, n)
	for i := range fids {
		if fids[i], err = r.svc.Create(id, fit.Attributes{Locking: level}); err != nil {
			r.t.Fatal(err)
		}
		if _, err := r.svc.PWrite(id, fids[i], 0, bytes.Repeat([]byte("o"), size)); err != nil {
			r.t.Fatal(err)
		}
	}
	if err := r.svc.End(id); err != nil {
		r.t.Fatal(err)
	}
	return fids
}

// files reads back every file the file service lists: its bytes, whose
// length is its size.
func (r *rig) files() map[FileID][]byte {
	r.t.Helper()
	ids, err := r.fs.List()
	if err != nil {
		r.t.Fatal(err)
	}
	out := make(map[FileID][]byte, len(ids))
	for _, fid := range ids {
		size, err := r.fs.Size(fid)
		if err != nil {
			r.t.Fatalf("listed file %d: %v", fid, err)
		}
		if out[fid], err = r.fs.ReadAt(fid, 0, int(size)); err != nil {
			r.t.Fatalf("listed file %d: %v", fid, err)
		}
	}
	return out
}

// TestCrashBeforeApplyRedoneByRecovery: a commit and Recover carry out the
// same update list. For each kind of update a commit logs, a crash at the
// commit point followed by Recover leaves what the same commit leaves
// uncrashed — the file list, every file's bytes and size — and a clean
// fsck.
func TestCrashBeforeApplyRedoneByRecovery(t *testing.T) {
	const bs = fileservice.BlockSize
	for _, c := range []struct {
		name        string
		force       intentions.Technique
		level       fit.LockLevel
		files, size int // seeded by an earlier commit
		do          func(r *rig, id TxnID, fids []FileID)
		moreExtents bool // the commit broke the file's contiguity
	}{
		{name: "record runs in two files", level: fit.LockRecord, files: 2, size: 600,
			do: func(r *rig, id TxnID, fids []FileID) {
				for i, fid := range fids {
					for _, off := range []int64{0, 400} {
						r.pwrite(id, fid, off, bytes.Repeat([]byte{byte('A' + i)}, 100))
					}
				}
			}},
		{name: "logged page", force: intentions.WAL, level: fit.LockPage, files: 1, size: 2 * bs,
			do: func(r *rig, id TxnID, fids []FileID) {
				r.pwrite(id, fids[0], bs+50, bytes.Repeat([]byte("P"), 100))
			}},
		{name: "shadow page", force: intentions.ShadowPage, level: fit.LockPage, files: 1, size: 4 * bs,
			do: func(r *rig, id TxnID, fids []FileID) {
				r.pwrite(id, fids[0], bs, bytes.Repeat([]byte("S"), bs))
			}, moreExtents: true},
		{name: "growth past the old end", level: fit.LockPage, files: 1, size: 100,
			do: func(r *rig, id TxnID, fids []FileID) {
				r.pwrite(id, fids[0], 3*bs-10, bytes.Repeat([]byte("G"), 20))
			}},
		{name: "delete", level: fit.LockFile, files: 2, size: 100,
			do: func(r *rig, id TxnID, fids []FileID) {
				r.pwrite(id, fids[0], 50, []byte("kept"))
				if err := r.svc.Delete(id, fids[1]); err != nil {
					r.t.Fatal(err)
				}
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var states [2]map[FileID][]byte
			for i, crash := range []bool{false, true} {
				inj := fault.NewInjector(1)
				r := newRig(t, func(cfg *Config) { cfg.Fault, cfg.ForceTechnique = inj, c.force })
				fids := r.seedFiles(c.files, c.size, c.level)
				exts, _, err := r.fs.ContiguityProfile(fids[0])
				if err != nil {
					t.Fatal(err)
				}
				id := r.begin(c.level, fids...)
				c.do(r, id, fids)
				if !crash {
					if err := r.svc.End(id); err != nil {
						t.Fatal(err)
					}
				} else {
					r.crashAfterLog(id)
					r.crash()
					// The seeding commit is still in the log, and is redone too.
					if committed, err := r.svc.Recover(); err != nil || committed != 2 {
						t.Fatalf("Recover = %d, %v; want both commits redone", committed, err)
					}
				}
				if rep, err := r.fs.Check(); err != nil || !rep.Ok() {
					t.Fatalf("crash=%v: fsck = %+v, %v", crash, rep, err)
				}
				if c.moreExtents {
					if after, _, err := r.fs.ContiguityProfile(fids[0]); err != nil || after <= exts {
						t.Fatalf("crash=%v: %d -> %d extents, %v; want the shadow swap done", crash, exts, after, err)
					}
				}
				states[i] = r.files()
			}
			uncrashed, recovered := states[0], states[1]
			if len(recovered) != len(uncrashed) {
				t.Fatalf("recovered %d files, the uncrashed commit leaves %d", len(recovered), len(uncrashed))
			}
			for fid, want := range uncrashed {
				got, ok := recovered[fid]
				if !ok {
					t.Fatalf("file %d missing after recovery", fid)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("file %d after recovery: %d bytes %q...; uncrashed: %d bytes %q...", fid, len(got), head(got), len(want), head(want))
				}
			}
		})
	}
}

// pwrite writes data at off in the transaction or fails the test.
func (r *rig) pwrite(id TxnID, fid FileID, off int64, data []byte) {
	r.t.Helper()
	if _, err := r.svc.PWrite(id, fid, off, data); err != nil {
		r.t.Fatal(err)
	}
}

// begin starts a transaction that opens fids at level, or fails the test.
func (r *rig) begin(level fit.LockLevel, fids ...FileID) TxnID {
	r.t.Helper()
	id, err := r.svc.Begin(1)
	if err != nil {
		r.t.Fatal(err)
	}
	for _, fid := range fids {
		if err := r.svc.Open(id, fid, level); err != nil {
			r.t.Fatal(err)
		}
	}
	return id
}

// head is at most the first 16 bytes of b, for a failure message.
func head(b []byte) []byte {
	return b[:min(len(b), 16)]
}

func TestCrashBeforeCommitPointLosesNothingCommitted(t *testing.T) {
	r := newRig(t)
	// Commit one txn fully.
	id, fid := r.beginWithFile(fit.LockRecord)
	if _, err := r.svc.PWrite(id, fid, 0, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.End(id); err != nil {
		t.Fatal(err)
	}
	// Start another, write tentatively, then crash without commit.
	id2, err := r.svc.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Open(id2, fid, fit.LockRecord); err != nil {
		t.Fatal(err)
	}
	if _, err := r.svc.PWrite(id2, fid, 0, []byte("VOLATILE")); err != nil {
		t.Fatal(err)
	}
	r.crash()
	if _, err := r.svc.Recover(); err != nil {
		t.Fatal(err)
	}
	got, err := r.fs.ReadAt(fid, 0, 7)
	if err != nil || string(got) != "durable" {
		t.Fatalf("post-crash content = %q, %v (tentative data must be discarded)", got, err)
	}
}

func TestRecoveryIdempotent(t *testing.T) {
	r := newCrashAfterLogRig(t)
	id, fid := r.beginWithFile(fit.LockPage)
	want := []byte("idempotent")
	if _, err := r.svc.PWrite(id, fid, 0, want); err != nil {
		t.Fatal(err)
	}
	r.crashAfterLog(id)
	r.crash()
	if _, err := r.svc.Recover(); err != nil {
		t.Fatal(err)
	}
	// Crash again right after recovery and recover again.
	r.crash()
	if _, err := r.svc.Recover(); err != nil {
		t.Fatal(err)
	}
	got, err := r.fs.ReadAt(fid, 0, len(want))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("double-recovered data = %q, %v", got, err)
	}
}

// TestCommittedDeleteSurvivesCrash: a transaction that writes file A and
// deletes file B is whole after a crash anywhere past its commit point —
// before anything is applied, at the last apply step before the delete, or
// after an apply that failed — and a second crash and Recover leave the
// same state. A's rewrite commits as logged pages, then as shadow swaps: a
// swap done before the crash left its image in a block the log does not
// hold, and Recover's redo of the seeding commit's logged image of the same
// block must not leave it overwritten.
func TestCommittedDeleteSurvivesCrash(t *testing.T) {
	const bs = fileservice.BlockSize
	for _, technique := range []intentions.Technique{intentions.WAL, intentions.ShadowPage} {
		for _, c := range []struct {
			name string
			end  func(r *rig, id TxnID)
		}{
			{"after-log", func(r *rig, id TxnID) { r.crashAfterLog(id) }},
			{"mid-apply", func(r *rig, id TxnID) {
				// A's two pages are hits 1 and 2; die before the second.
				r.inj.Arm(PtCommitMidApply, fault.Action{Kind: fault.KindCrash, After: 1})
				if crashed, err := fault.Run(func() error { return r.svc.End(id) }); crashed == nil || crashed.Point != PtCommitMidApply {
					r.t.Fatalf("End with a crash armed before A's second page = %v, %v", crashed, err)
				}
			}},
			{"apply-failed", func(r *rig, id TxnID) {
				// The data disk fails under the apply; the log's disks do not.
				r.dev.Fail()
				err := r.svc.End(id)
				r.dev.Repair()
				if err == nil || !strings.Contains(err.Error(), "application incomplete (recoverable)") {
					r.t.Fatalf("End with the data disk failed = %v; want committed but application incomplete", err)
				}
			}},
		} {
			t.Run(fmt.Sprintf("%v/%s", technique, c.name), func(t *testing.T) {
				inj := fault.NewInjector(1)
				r := newRig(t, func(cfg *Config) { cfg.Fault, cfg.ForceTechnique = inj, technique })
				// The seeding writes new blocks, which commit as logged pages
				// whatever the technique.
				fids := r.seedFiles(2, 2*bs, fit.LockPage)
				a, b := fids[0], fids[1]
				want := bytes.Repeat([]byte("A"), 2*bs)
				id := r.begin(fit.LockPage, fids...)
				r.pwrite(id, a, 0, want)
				if err := r.svc.Delete(id, b); err != nil {
					t.Fatal(err)
				}
				c.end(r, id)
				for round := 1; round <= 2; round++ {
					r.crash()
					if _, err := r.svc.Recover(); err != nil {
						t.Fatalf("Recover %d: %v", round, err)
					}
					for blk := int64(0); blk < 2; blk++ {
						if got, err := r.fs.ReadAt(a, blk*bs, bs); err != nil || !bytes.Equal(got, want[:bs]) {
							t.Fatalf("after Recover %d block %d of file A reads %q..., %v; want the committed write", round, blk, head(got), err)
						}
					}
					if size, err := r.fs.Size(b); !errors.Is(err, fileservice.ErrNotFound) {
						t.Fatalf("after Recover %d file B has size %d, %v; want it deleted", round, size, err)
					}
				}
			})
		}
	}
}

func TestDeadlockResolvedByTimeout(t *testing.T) {
	r := newRig(t, withLocks(lock.Config{LT: 20 * time.Millisecond, MaxRenewals: 2}))
	stopSweep := r.svc.Locks().StartSweeper(5 * time.Millisecond)
	defer stopSweep()
	// Two files, two txns, opposite acquisition order.
	a, fa := r.beginWithFile(fit.LockFile)
	if _, err := r.svc.PWrite(a, fa, 0, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.End(a); err != nil {
		t.Fatal(err)
	}
	b, fb := r.beginWithFile(fit.LockFile)
	if _, err := r.svc.PWrite(b, fb, 0, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.End(b); err != nil {
		t.Fatal(err)
	}

	t1, _ := r.svc.Begin(1)
	t2, _ := r.svc.Begin(2)
	for _, pair := range []struct {
		id  TxnID
		fid FileID
	}{{t1, fa}, {t1, fb}, {t2, fa}, {t2, fb}} {
		if err := r.svc.Open(pair.id, pair.fid, fit.LockFile); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.svc.PWrite(t1, fa, 0, []byte("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.svc.PWrite(t2, fb, 0, []byte("2")); err != nil {
		t.Fatal(err)
	}
	// Now cross: both block; the sweeper must abort at least one.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, errs[0] = r.svc.PWrite(t1, fb, 0, []byte("1"))
		if errs[0] == nil {
			errs[0] = r.svc.End(t1)
		}
	}()
	go func() {
		defer wg.Done()
		_, errs[1] = r.svc.PWrite(t2, fa, 0, []byte("2"))
		if errs[1] == nil {
			errs[1] = r.svc.End(t2)
		}
	}()
	waitCh := make(chan struct{})
	go func() { wg.Wait(); close(waitCh) }()
	select {
	case <-waitCh:
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock not resolved within 10s")
	}
	aborted := 0
	for _, err := range errs {
		if errors.Is(err, ErrAborted) {
			aborted++
		} else if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if aborted == 0 {
		t.Fatal("deadlock resolved without aborting any transaction?")
	}
	if r.met.Get(metrics.TxnTimedOut) == 0 {
		t.Fatal("timeout counter not incremented")
	}
}

func TestSerializabilityBankTransfers(t *testing.T) {
	// The classic invariant: concurrent transfers between accounts keep the
	// total constant. Record-level locking on a single accounts file.
	r := newRig(t, withLocks(lock.Config{LT: 200 * time.Millisecond, MaxRenewals: 5}))
	stopSweep := r.svc.Locks().StartSweeper(20 * time.Millisecond)
	defer stopSweep()
	const accounts = 8
	const initial = 1000

	setup, fid := r.beginWithFile(fit.LockRecord)
	for i := 0; i < accounts; i++ {
		if _, err := r.svc.PWrite(setup, fid, int64(i*8), encode64(initial)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.svc.End(setup); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	workers := 6
	transfers := 25
	var committed, abortedCount int64
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < transfers; i++ {
				from := rng.Intn(accounts)
				to := rng.Intn(accounts)
				if from == to {
					continue
				}
				err := transfer(r.svc, fid, from, to, 1+rng.Intn(10))
				mu.Lock()
				if err == nil {
					committed++
				} else if errors.Is(err, ErrAborted) {
					abortedCount++
				} else {
					t.Errorf("transfer: %v", err)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	// Verify conservation.
	total := 0
	for i := 0; i < accounts; i++ {
		raw, err := r.fs.ReadAt(fid, int64(i*8), 8)
		if err != nil {
			t.Fatal(err)
		}
		total += decode64(raw)
	}
	if total != accounts*initial {
		t.Fatalf("money not conserved: total %d, want %d (committed=%d aborted=%d)",
			total, accounts*initial, committed, abortedCount)
	}
	if committed == 0 {
		t.Fatal("no transfer ever committed")
	}
}

// transfer moves amount between two accounts in one transaction.
func transfer(svc *Service, fid FileID, from, to, amount int) error {
	id, err := svc.Begin(from)
	if err != nil {
		return err
	}
	if err := svc.Open(id, fid, fit.LockRecord); err != nil {
		_ = svc.Abort(id)
		return err
	}
	// Lock in a canonical order to reduce (not eliminate) deadlocks; the
	// timeout handles the rest.
	first, second := from, to
	if second < first {
		first, second = second, first
	}
	bal := map[int]int{}
	for _, acct := range []int{first, second} {
		raw, err := svc.PRead(id, fid, int64(acct*8), 8, true)
		if err != nil {
			_ = svc.Abort(id)
			return err
		}
		bal[acct] = decode64(raw)
	}
	bal[from] -= amount
	bal[to] += amount
	for _, acct := range []int{first, second} {
		if _, err := svc.PWrite(id, fid, int64(acct*8), encode64(bal[acct])); err != nil {
			_ = svc.Abort(id)
			return err
		}
	}
	return svc.End(id)
}

func encode64(v int) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[7-i] = byte(v >> (8 * i))
	}
	return b
}

func decode64(b []byte) int {
	v := 0
	for _, x := range b {
		v = v<<8 | int(x)
	}
	return v
}

func TestFileServiceClassificationFlips(t *testing.T) {
	r := newRig(t)
	id, fid := r.beginWithFile(fit.LockPage)
	attr, err := r.fs.Attributes(fid)
	if err != nil || attr.Service != fit.ServiceTransaction {
		t.Fatalf("file not classified transactional while open in txn: %+v, %v", attr, err)
	}
	if _, err := r.svc.PWrite(id, fid, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.End(id); err != nil {
		t.Fatal(err)
	}
	attr, err = r.fs.Attributes(fid)
	if err != nil || attr.Service != fit.ServiceBasic {
		t.Fatalf("file not reclassified basic after txn end: %+v, %v", attr, err)
	}
}

// TestReopenInTxnReleasesOnce: a transaction that opens a file it already
// has open keeps its one view and one file-service open, so End leaves the
// file closed, back in the basic service, and deletable. The re-open
// re-levels the view but keeps its tentative size.
func TestReopenInTxnReleasesOnce(t *testing.T) {
	r := newRig(t)
	fid := r.seedFiles(1, 100, fit.LockPage)[0]
	id, err := r.svc.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Open(id, fid, fit.LockNone); err != nil {
		t.Fatal(err)
	}
	if _, err := r.svc.PWrite(id, fid, 100, []byte("grown")); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Open(id, fid, fit.LockPage); err != nil {
		t.Fatal(err)
	}
	if attr, err := r.svc.GetAttribute(id, fid); err != nil || attr.Size != 105 {
		t.Fatalf("size after re-open = %d, %v; want the tentative 105", attr.Size, err)
	}
	if err := r.svc.End(id); err != nil {
		t.Fatal(err)
	}
	attr, err := r.fs.Attributes(fid)
	if err != nil {
		t.Fatal(err)
	}
	if attr.RefCount != 0 || attr.Service != fit.ServiceBasic {
		t.Fatalf("after End: RefCount %d, service %v; want 0 and %v", attr.RefCount, attr.Service, fit.ServiceBasic)
	}
	if err := r.fs.Delete(fid); err != nil {
		t.Fatalf("Delete after End: %v", err)
	}
}

func TestErrorsAndEdgeCases(t *testing.T) {
	r := newRig(t)
	if _, err := r.svc.PRead(999, 1, 0, 1, false); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("unknown txn = %v", err)
	}
	id, err := r.svc.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.svc.PRead(id, 12345, 0, 1, false); !errors.Is(err, ErrNotOpenInTxn) {
		t.Fatalf("unopened file = %v", err)
	}
	fid, err := r.svc.Create(id, fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.svc.PWrite(id, fid, -1, []byte("x")); !errors.Is(err, fileservice.ErrBadOffset) {
		t.Fatalf("negative write = %v", err)
	}
	// Zero-length ops are no-ops.
	if n, err := r.svc.PWrite(id, fid, 0, nil); err != nil || n != 0 {
		t.Fatalf("empty write = %d, %v", n, err)
	}
	if err := r.svc.CloseFile(id, fid); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.End(id); err != nil {
		t.Fatal(err)
	}
	// Ops after end.
	if err := r.svc.End(id); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("double End = %v", err)
	}
	if err := r.svc.Abort(id); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("Abort after End = %v", err)
	}
}

func TestManyCommitsTruncateLog(t *testing.T) {
	r := newRig(t)
	id, fid := r.beginWithFile(fit.LockRecord)
	if _, err := r.svc.PWrite(id, fid, 0, make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.End(id); err != nil {
		t.Fatal(err)
	}
	// Enough committed bytes to overflow the 512 KB log several times.
	payload := bytes.Repeat([]byte("L"), 8000)
	for i := 0; i < 100; i++ {
		tx, err := r.svc.Begin(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.svc.Open(tx, fid, fit.LockRecord); err != nil {
			t.Fatal(err)
		}
		if _, err := r.svc.PWrite(tx, fid, 0, payload); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if err := r.svc.End(tx); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	got, err := r.fs.ReadAt(fid, 0, 10)
	if err != nil || string(got) != "LLLLLLLLLL" {
		t.Fatalf("final content = %q, %v", got, err)
	}
	fmt.Println("log bytes:", r.log.AppendedBytes())
}

// TestCrashBetweenFilePassesRecoversBoth: a commit carries out its record
// intentions one file at a time, each file's in one pass. A crash after the
// first file's pass leaves that file wholly applied and the second
// untouched, and recovery redoes both from the log: after it both files
// hold the transaction's writes, never one without the other.
func TestCrashBetweenFilePassesRecoversBoth(t *testing.T) {
	r := newCrashAfterLogRig(t)
	old := bytes.Repeat([]byte("o"), 600)
	id, err := r.svc.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	fids := make([]FileID, 2)
	for i := range fids {
		if fids[i], err = r.svc.Create(id, fit.Attributes{Locking: fit.LockRecord}); err != nil {
			t.Fatal(err)
		}
		if _, err := r.svc.PWrite(id, fids[i], 0, old); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.svc.End(id); err != nil {
		t.Fatal(err)
	}
	// One transaction rewrites two records in each file.
	id, err = r.svc.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	news := [][]byte{bytes.Repeat([]byte("A"), 100), bytes.Repeat([]byte("B"), 100)}
	want := make([][]byte, len(fids))
	for i, fid := range fids {
		if err := r.svc.Open(id, fid, fit.LockRecord); err != nil {
			t.Fatal(err)
		}
		want[i] = append([]byte(nil), old...)
		for _, off := range []int{0, 400} {
			if _, err := r.svc.PWrite(id, fid, int64(off), news[i]); err != nil {
				t.Fatal(err)
			}
			copy(want[i][off:], news[i])
		}
	}
	r.inj.Arm(PtCommitMidApply, fault.Action{Kind: fault.KindCrash, After: 1})
	crashed, err := fault.Run(func() error { return r.svc.End(id) })
	if crashed == nil || crashed.Point != PtCommitMidApply {
		t.Fatalf("End with a crash armed before the second file's pass = %v, %v", crashed, err)
	}
	for i, wantNow := range [][]byte{want[0], old} {
		got, err := r.fs.ReadAt(fids[i], 0, len(old))
		if err != nil || !bytes.Equal(got, wantNow) {
			t.Fatalf("before recovery file %d reads %q, %v; want its pass %s", i, got, err, []string{"done", "not begun"}[i])
		}
	}
	r.crash()
	if committed, err := r.svc.Recover(); err != nil || committed == 0 {
		t.Fatalf("Recover = %d, %v; want the interrupted transaction redone", committed, err)
	}
	for i, fid := range fids {
		got, err := r.fs.ReadAt(fid, 0, len(old))
		if err != nil || !bytes.Equal(got, want[i]) {
			t.Fatalf("after recovery file %d reads %q, %v; want %q", i, got, err, want[i])
		}
	}
}
