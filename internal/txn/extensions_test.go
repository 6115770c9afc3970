package txn

import (
	"testing"

	"repro/internal/fit"
)

// TestAdaptiveDefaultLockLevel verifies §7's "exploits the knowledge of how
// frequently a file is used": rarely-opened files default to coarse (file)
// locking, hot files to fine (record) locking.
func TestAdaptiveDefaultLockLevel(t *testing.T) {
	r := newRig(t, func(c *Config) { c.AdaptiveDefault = true })
	// A file with no recorded lock level, so the adaptive default applies.
	fid, err := r.fs.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.fs.WriteAt(fid, 0, make([]byte, 64*1024)); err != nil {
		t.Fatal(err)
	}
	levelOfOpen := func() fit.LockLevel {
		t.Helper()
		tid, err := r.svc.Begin(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.svc.Open(tid, fid, fit.LockNone); err != nil {
			t.Fatal(err)
		}
		tt, err := r.svc.get(tid)
		if err != nil {
			t.Fatal(err)
		}
		f, err := tt.file(fid)
		if err != nil {
			t.Fatal(err)
		}
		level := f.level
		if err := r.svc.Abort(tid); err != nil {
			t.Fatal(err)
		}
		return level
	}
	// First opens: cold file -> file level.
	if got := levelOfOpen(); got != fit.LockFile {
		t.Fatalf("cold open level = %v, want file", got)
	}
	// A few more opens: warm -> page.
	var got fit.LockLevel
	for i := 0; i < 2; i++ {
		got = levelOfOpen()
	}
	if got != fit.LockPage {
		t.Fatalf("warm open level = %v, want page", got)
	}
	// Many opens: hot -> record.
	for i := 0; i < 6; i++ {
		got = levelOfOpen()
	}
	if got != fit.LockRecord {
		t.Fatalf("hot open level = %v, want record", got)
	}
}

// TestCommitSurvivesLogOverflowMidAppend forces a single commit whose
// records exceed the remaining log space: writeCommitRecords must truncate
// the (fully applied) log and retry rather than fail.
func TestCommitSurvivesLogOverflowMidAppend(t *testing.T) {
	r := newRig(t)
	// Shrink the effective log: fill most of it with committed small txns
	// until the next page-sized commit cannot fit.
	id, fid := r.beginWithFile(fit.LockPage)
	if _, err := r.svc.PWrite(id, fid, 0, make([]byte, 4*8192)); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.End(id); err != nil {
		t.Fatal(err)
	}
	// 256-fragment log = 512 KB; each page commit logs ~8.3 KB. Run enough
	// commits to wrap the log several times; every one must succeed.
	payload := make([]byte, 8192)
	for i := 0; i < 80; i++ {
		tx, err := r.svc.Begin(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.svc.Open(tx, fid, fit.LockPage); err != nil {
			t.Fatal(err)
		}
		payload[0] = byte(i)
		if _, err := r.svc.PWrite(tx, fid, int64(i%4)*8192, payload); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if err := r.svc.End(tx); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	got, err := r.fs.ReadAt(fid, 3*8192, 1)
	if err != nil || got[0] != 79 {
		t.Fatalf("final content = %v, %v", got, err)
	}
}

// TestCommitFailsCleanlyWhenDiskFull: a transaction that cannot allocate
// space ends with an error, not corruption, and the service stays usable.
func TestCommitFailsCleanlyWhenDiskFull(t *testing.T) {
	r := newRig(t)
	// Exhaust the disk with one giant basic file (64 MB disk).
	big, err := r.fs.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	for off := int64(0); ; off += 1 << 20 {
		if _, err := r.fs.WriteAt(big, off, make([]byte, 1<<20)); err != nil {
			break // disk full
		}
	}
	// A transaction trying to create and fill a new file must fail but not
	// wedge the service.
	id, err := r.svc.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	fid, err := r.svc.Create(id, fit.Attributes{Locking: fit.LockPage})
	if err != nil {
		// Even the create may fail — that is a clean outcome too.
		return
	}
	if _, err := r.svc.PWrite(id, fid, 0, make([]byte, 1<<20)); err == nil {
		err = r.svc.End(id)
		if err == nil {
			t.Log("commit found space (reserved block); acceptable")
		}
	} else {
		_ = r.svc.Abort(id)
	}
	// The service still works: free space by deleting the big file, then a
	// fresh transaction succeeds.
	if err := r.fs.Delete(big); err != nil {
		t.Fatal(err)
	}
	id2, err := r.svc.Begin(2)
	if err != nil {
		t.Fatal(err)
	}
	fid2, err := r.svc.Create(id2, fit.Attributes{Locking: fit.LockPage})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.svc.PWrite(id2, fid2, 0, []byte("recovered")); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.End(id2); err != nil {
		t.Fatalf("post-recovery commit: %v", err)
	}
}
