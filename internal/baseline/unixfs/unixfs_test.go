package unixfs

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/metrics"
)

func newFS(t *testing.T) (*FS, *metrics.Set) {
	t.Helper()
	met := metrics.NewSet()
	d, err := device.New(device.Geometry{FragmentsPerTrack: 32, Tracks: 512}, device.WithMetrics(met))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Format(d, 128)
	if err != nil {
		t.Fatal(err)
	}
	return fs, met
}

func payload(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestRoundTrip(t *testing.T) {
	fs, _ := newFS(t)
	ino, err := fs.Create()
	if err != nil {
		t.Fatal(err)
	}
	want := payload(3*BlockSize+500, 1)
	if _, err := fs.WriteAt(ino, 0, want); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAt(ino, 0, len(want))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("round trip mismatch: %v", err)
	}
}

func TestPartialAndInteriorAccess(t *testing.T) {
	fs, _ := newFS(t)
	ino, err := fs.Create()
	if err != nil {
		t.Fatal(err)
	}
	want := payload(2*BlockSize, 2)
	if _, err := fs.WriteAt(ino, 0, want); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt(ino, 100, []byte("PATCH")); err != nil {
		t.Fatal(err)
	}
	copy(want[100:], "PATCH")
	got, err := fs.ReadAt(ino, 90, 30)
	if err != nil || !bytes.Equal(got, want[90:120]) {
		t.Fatalf("interior read mismatch: %q, %v", got, err)
	}
	// Past EOF.
	got, err = fs.ReadAt(ino, int64(len(want)), 10)
	if err != nil || got != nil {
		t.Fatalf("read past EOF = %q, %v", got, err)
	}
}

func TestIndirectBlocks(t *testing.T) {
	fs, _ := newFS(t)
	ino, err := fs.Create()
	if err != nil {
		t.Fatal(err)
	}
	// 20 blocks: 12 direct + 8 via the indirect block.
	want := payload(20*BlockSize, 3)
	if _, err := fs.WriteAt(ino, 0, want); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAt(ino, 0, len(want))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatal("indirect round trip mismatch")
	}
}

func TestOneReferencePerBlock(t *testing.T) {
	// The baseline property E1 measures: an n-block read costs at least n
	// data references plus the inode (plus indirect lookups beyond block 12)
	// because there is no contiguity count.
	fs, met := newFS(t)
	ino, err := fs.Create()
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 8
	if _, err := fs.WriteAt(ino, 0, payload(blocks*BlockSize, 4)); err != nil {
		t.Fatal(err)
	}
	before := met.Get(metrics.DiskReferences)
	if _, err := fs.ReadAt(ino, 0, blocks*BlockSize); err != nil {
		t.Fatal(err)
	}
	refs := met.Get(metrics.DiskReferences) - before
	if refs < blocks+1 {
		t.Fatalf("8-block read took %d references, want >= %d (inode + one per block)", refs, blocks+1)
	}
}

func TestTooLarge(t *testing.T) {
	fs, _ := newFS(t)
	ino, err := fs.Create()
	if err != nil {
		t.Fatal(err)
	}
	maxBlocks := DirectPointers + PointersPerIndirect
	if _, err := fs.WriteAt(ino, int64(maxBlocks)*BlockSize, []byte("x")); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized write = %v", err)
	}
}

func TestInodePersistence(t *testing.T) {
	// Inodes live on disk, not in memory: a second FS handle over the same
	// device is not supported (no mount), but the inode round-trips through
	// the device on every operation, so metadata survives in the device.
	fs, met := newFS(t)
	ino, err := fs.Create()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt(ino, 0, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	before := met.Get(metrics.DiskReferences)
	if _, err := fs.ReadAt(ino, 0, 3); err != nil {
		t.Fatal(err)
	}
	if got := met.Get(metrics.DiskReferences) - before; got < 2 {
		t.Fatalf("a one-block read took %d references; the inode must be read from disk too", got)
	}
}

func TestInodeAreaFixedAtDiskStart(t *testing.T) {
	fs, _ := newFS(t)
	start, frags := fs.InodeArea()
	if start != 0 || frags <= 0 {
		t.Fatalf("inode area = %d+%d, want fixed area at 0 (E11 contrast)", start, frags)
	}
}

func TestManyFiles(t *testing.T) {
	fs, _ := newFS(t)
	inos := map[Ino][]byte{}
	for i := 0; i < 50; i++ {
		ino, err := fs.Create()
		if err != nil {
			t.Fatal(err)
		}
		data := payload(1+i*100, int64(i))
		if _, err := fs.WriteAt(ino, 0, data); err != nil {
			t.Fatal(err)
		}
		inos[ino] = data
	}
	for ino, want := range inos {
		got, err := fs.ReadAt(ino, 0, len(want))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("file %d mismatch: %v", ino, err)
		}
	}
}
