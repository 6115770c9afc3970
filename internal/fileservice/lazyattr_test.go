package fileservice

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/diskservice"
	"repro/internal/fit"
	"repro/internal/metrics"
)

// closedFile creates a file holding data, written and closed, so its FIT
// on disk is current.
func closedFile(t *testing.T, r *rig, data []byte) FileID {
	t.Helper()
	id, err := r.svc.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Open(id); err != nil {
		t.Fatal(err)
	}
	if _, err := r.svc.WriteAt(id, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Close(id); err != nil {
		t.Fatal(err)
	}
	return id
}

// readClosed opens id, reads it whole and closes it, returning the stamp the
// read left in memory.
func readClosed(t *testing.T, r *rig, id FileID, n int) time.Time {
	t.Helper()
	if err := r.svc.Open(id); err != nil {
		t.Fatal(err)
	}
	if _, err := r.svc.ReadAt(id, 0, n); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Close(id); err != nil {
		t.Fatal(err)
	}
	attr, err := r.svc.Attributes(id)
	if err != nil {
		t.Fatal(err)
	}
	if attr.LastRead.IsZero() {
		t.Fatal("the read left no last-read stamp")
	}
	return attr.LastRead
}

// TestReadThenCloseWritesNothing: the last-read stamp is persisted lazily,
// so a read and the last Close after it issue no device write. Before, that
// Close rewrote the FIT for the stamp alone.
func TestReadThenCloseWritesNothing(t *testing.T) {
	r := newRig(t, 1)
	data := payload(3000, 1)
	id := closedFile(t, r, data)
	before := r.met.Get(metrics.DiskBytesWrite)
	readClosed(t, r, id, len(data))
	if wrote := r.met.Get(metrics.DiskBytesWrite) - before; wrote != 0 {
		t.Fatalf("read + close wrote %d bytes to the device, want 0", wrote)
	}
}

// TestLazyAttributesPersistAtShutdown: the stamp and the per-use service
// flip reach disk at Shutdown, and a remount reads them back.
func TestLazyAttributesPersistAtShutdown(t *testing.T) {
	r := newRig(t, 1)
	data := payload(3000, 2)
	id := closedFile(t, r, data)
	stamp := readClosed(t, r, id, len(data))
	if err := r.svc.SetService(id, fit.ServiceTransaction); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Shutdown(); err != nil {
		t.Fatal(err)
	}
	svc2, err := Mount(Config{Disks: Servers(r.disks...)})
	if err != nil {
		t.Fatal(err)
	}
	attr, err := svc2.Attributes(id)
	if err != nil {
		t.Fatal(err)
	}
	if !attr.LastRead.Equal(stamp) || attr.Service != fit.ServiceTransaction {
		t.Fatalf("after remount LastRead %v service %v, want %v and %v", attr.LastRead, attr.Service, stamp, fit.ServiceTransaction)
	}
}

// TestDropFITCachePersistsLazyAttributes: forgetting a table whose stamp
// never reached disk writes it first — one FIT fragment — so the reload
// reads the stamp back.
func TestDropFITCachePersistsLazyAttributes(t *testing.T) {
	r := newRig(t, 1)
	data := payload(3000, 3)
	id := closedFile(t, r, data)
	stamp := readClosed(t, r, id, len(data))
	before := r.met.Get(metrics.DiskBytesWrite)
	r.svc.DropFITCache()
	if wrote := r.met.Get(metrics.DiskBytesWrite) - before; wrote != FragmentSize {
		t.Fatalf("DropFITCache wrote %d bytes, want one FIT fragment (%d)", wrote, FragmentSize)
	}
	r.svc.mu.Lock()
	_, cached := r.svc.files[id]
	r.svc.mu.Unlock()
	if cached {
		t.Fatal("DropFITCache kept the file's state")
	}
	attr, err := r.svc.Attributes(id)
	if err != nil {
		t.Fatal(err)
	}
	if !attr.LastRead.Equal(stamp) {
		t.Fatalf("reloaded LastRead %v, want %v", attr.LastRead, stamp)
	}
}

// TestCrashAfterReadKeepsVitalState: a crash after read + close loses only
// the unpersisted stamp. The remount checks clean and holds the file as its
// last vital write left it.
func TestCrashAfterReadKeepsVitalState(t *testing.T) {
	r := newRig(t, 1)
	data := payload(3*BlockSize+100, 4)
	id := closedFile(t, r, data)
	stamp := readClosed(t, r, id, len(data))
	// The machine dies: the drive and its stable mirror survive, nothing
	// volatile does.
	srv, err := diskservice.Mount(diskservice.Config{Disk: r.devs[0], Stable: r.stables[0]})
	if err != nil {
		t.Fatal(err)
	}
	svc2, err := Mount(Config{Disks: Servers(srv)})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := svc2.Check()
	if err != nil || !rep.Ok() {
		t.Fatalf("Check after the crash: %v %v", err, rep.Problems)
	}
	attr, err := svc2.Attributes(id)
	if err != nil {
		t.Fatal(err)
	}
	if attr.Size != uint64(len(data)) || !attr.LastRead.Before(stamp) {
		t.Fatalf("after the crash size %d LastRead %v, want %d and a stamp from before the read at %v", attr.Size, attr.LastRead, len(data), stamp)
	}
	got, err := svc2.ReadAt(id, 0, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("data after the crash: %v", err)
	}
}
