package txn

import (
	"testing"

	"repro/internal/device"
	"repro/internal/diskservice"
	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/lock"
	"repro/internal/stable"
	"repro/internal/wal"
)

// benchRig builds the substrate without a testing.T.
func benchRig(b *testing.B) *Service {
	b.Helper()
	g := device.Geometry{FragmentsPerTrack: 32, Tracks: 1024}
	d, err := device.New(g)
	if err != nil {
		b.Fatal(err)
	}
	sp, _ := device.New(g)
	sm, _ := device.New(g)
	st, err := stable.NewStore(sp, sm)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = st.Close() })
	srv, err := diskservice.Format(diskservice.Config{Disk: d, Stable: st})
	if err != nil {
		b.Fatal(err)
	}
	fs, err := fileservice.New(fileservice.Config{Disks: fileservice.Servers(srv)})
	if err != nil {
		b.Fatal(err)
	}
	lp, _ := device.New(device.Geometry{FragmentsPerTrack: 32, Tracks: 256})
	lm, _ := device.New(device.Geometry{FragmentsPerTrack: 32, Tracks: 256})
	logSt, err := stable.NewStore(lp, lm)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = logSt.Close() })
	start, err := logSt.Allocate(4096)
	if err != nil {
		b.Fatal(err)
	}
	log, err := wal.Open(logSt, start, 4096)
	if err != nil {
		b.Fatal(err)
	}
	locks := lock.New(lock.Config{})
	b.Cleanup(locks.Close)
	svc, err := New(Config{Files: fs, Log: log, Locks: locks})
	if err != nil {
		b.Fatal(err)
	}
	return svc
}

// benchFile creates a committed file of size bytes at the given level.
func benchFile(b *testing.B, svc *Service, level fit.LockLevel, size int) FileID {
	b.Helper()
	id, err := svc.Begin(0)
	if err != nil {
		b.Fatal(err)
	}
	fid, err := svc.Create(id, fit.Attributes{Locking: level})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := svc.PWrite(id, fid, 0, make([]byte, size)); err != nil {
		b.Fatal(err)
	}
	if err := svc.End(id); err != nil {
		b.Fatal(err)
	}
	return fid
}

func BenchmarkCommitPageUpdate(b *testing.B) {
	svc := benchRig(b)
	fid := benchFile(b, svc, fit.LockPage, 32*fileservice.BlockSize)
	payload := make([]byte, fileservice.BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := svc.Begin(1)
		if err != nil {
			b.Fatal(err)
		}
		if err := svc.Open(id, fid, fit.LockPage); err != nil {
			b.Fatal(err)
		}
		if _, err := svc.PWrite(id, fid, int64((i%32))*fileservice.BlockSize, payload); err != nil {
			b.Fatal(err)
		}
		if err := svc.End(id); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(fileservice.BlockSize)
}

func BenchmarkReadInTxn(b *testing.B) {
	svc := benchRig(b)
	fid := benchFile(b, svc, fit.LockRecord, 64*1024)
	id, err := svc.Begin(1)
	if err != nil {
		b.Fatal(err)
	}
	if err := svc.Open(id, fid, fit.LockRecord); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.PRead(id, fid, int64((i%500)*128), 128, false); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_ = svc.End(id)
}
