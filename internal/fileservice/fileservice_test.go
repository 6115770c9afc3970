package fileservice

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/diskservice"
	"repro/internal/fit"
	"repro/internal/metrics"
	"repro/internal/parity"
	"repro/internal/stable"
)

// rig bundles a file service with its substrate.
type rig struct {
	svc      *Service
	backends []Backend // what svc runs on: the disk servers, or an array of them
	disks    []*diskservice.Server
	devs     []*device.Disk
	stables  []*stable.Store
	met      *metrics.Set
}

// newRig builds a file service over nDisks simulated disks of 8 MB each.
func newRig(t *testing.T, nDisks int, mutate ...func(*Config)) *rig {
	t.Helper()
	return newRigGeom(t, device.Geometry{FragmentsPerTrack: 32, Tracks: 128}, nDisks, mutate...)
}

// newRigGeom is newRig with the disks' geometry chosen by the caller.
func newRigGeom(t *testing.T, g device.Geometry, nDisks int, mutate ...func(*Config)) *rig {
	t.Helper()
	r := newDisks(t, g, nDisks)
	return r.start(t, Servers(r.disks...), mutate...)
}

// layouts are the backends the data-path tests run on: one disk server, and
// a parity array over three (newLayoutRig).
var layouts = []struct {
	name   string
	parity bool
}{{"single-disk", false}, {"parity", true}}

// newLayoutRig is newRig(t, 1, mutate...) or, with parity set, a file service
// on a parity array over three such disks.
func newLayoutRig(t *testing.T, parityLayout bool, mutate ...func(*Config)) *rig {
	t.Helper()
	if !parityLayout {
		return newRig(t, 1, mutate...)
	}
	r := newDisks(t, device.Geometry{FragmentsPerTrack: 32, Tracks: 128}, 3)
	arr, err := parity.New(parity.Config{Disks: r.disks, Metrics: r.met})
	if err != nil {
		t.Fatal(err)
	}
	return r.start(t, []Backend{arr}, mutate...)
}

// newDisks formats nDisks disk servers, each with its stable store, sharing
// one metric set.
func newDisks(t *testing.T, g device.Geometry, nDisks int) *rig {
	t.Helper()
	met := metrics.NewSet()
	r := &rig{met: met}
	for i := 0; i < nDisks; i++ {
		d, err := device.New(g, device.WithMetrics(met))
		if err != nil {
			t.Fatal(err)
		}
		sp, err := device.New(g)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := device.New(g)
		if err != nil {
			t.Fatal(err)
		}
		st, err := stable.NewStore(sp, sm)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = st.Close() })
		srv, err := diskservice.Format(diskservice.Config{DiskID: i, Disk: d, Stable: st, Metrics: met})
		if err != nil {
			t.Fatal(err)
		}
		r.disks = append(r.disks, srv)
		r.devs = append(r.devs, d)
		r.stables = append(r.stables, st)
	}
	return r
}

// start builds the rig's file service on backends.
func (r *rig) start(t *testing.T, backends []Backend, mutate ...func(*Config)) *rig {
	t.Helper()
	cfg := Config{Disks: backends, Metrics: r.met}
	for _, m := range mutate {
		m(&cfg)
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.svc, r.backends = svc, backends
	return r
}

func payload(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	r := newRig(t, 1)
	id, err := r.svc.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	want := payload(100, 1)
	n, err := r.svc.WriteAt(id, 0, want)
	if err != nil || n != 100 {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	got, err := r.svc.ReadAt(id, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("round trip mismatch")
	}
	size, err := r.svc.Size(id)
	if err != nil || size != 100 {
		t.Fatalf("Size = %d, %v", size, err)
	}
}

func TestReadPastEOF(t *testing.T) {
	r := newRig(t, 1)
	id, err := r.svc.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.svc.WriteAt(id, 0, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	got, err := r.svc.ReadAt(id, 1, 100)
	if err != nil || string(got) != "bc" {
		t.Fatalf("short read = %q, %v", got, err)
	}
	// off+n wraps int64: the clamp must still apply (this length arrives
	// straight off the wire in an fs.readAt body).
	got, err = r.svc.ReadAt(id, 1, math.MaxInt64)
	if err != nil || string(got) != "bc" {
		t.Fatalf("read with n = MaxInt64 = %q, %v", got, err)
	}
	got, err = r.svc.ReadAt(id, 10, 5)
	if err != nil || got != nil {
		t.Fatalf("read past EOF = %q, %v", got, err)
	}
}

func TestWriteAtSparseAndOverwrite(t *testing.T) {
	r := newRig(t, 1)
	id, err := r.svc.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	// Write past block 0: blocks allocated up to the end.
	want := payload(1000, 2)
	if _, err := r.svc.WriteAt(id, 3*BlockSize+17, want); err != nil {
		t.Fatal(err)
	}
	got, err := r.svc.ReadAt(id, 3*BlockSize+17, 1000)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("sparse read mismatch: %v", err)
	}
	// The hole reads as zeros.
	hole, err := r.svc.ReadAt(id, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range hole {
		if b != 0 {
			t.Fatal("hole is not zeroed")
		}
	}
	// Overwrite in the middle.
	if _, err := r.svc.WriteAt(id, 3*BlockSize+17, []byte("XYZ")); err != nil {
		t.Fatal(err)
	}
	got, err = r.svc.ReadAt(id, 3*BlockSize+17, 3)
	if err != nil || string(got) != "XYZ" {
		t.Fatalf("overwrite read = %q, %v", got, err)
	}
}

func TestLargeFileMultiBlock(t *testing.T) {
	r := newRig(t, 1)
	id, err := r.svc.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	want := payload(5*BlockSize+123, 3)
	if _, err := r.svc.WriteAt(id, 0, want); err != nil {
		t.Fatal(err)
	}
	got, err := r.svc.ReadAt(id, 0, len(want))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatal("large round trip mismatch")
	}
	// Random interior reads.
	for i := 0; i < 20; i++ {
		off := rand.Intn(len(want) - 10)
		got, err := r.svc.ReadAt(id, int64(off), 10)
		if err != nil || !bytes.Equal(got, want[off:off+10]) {
			t.Fatalf("interior read at %d mismatch: %v", off, err)
		}
	}
}

func TestTwoDiskReferencesForHalfMegabyte(t *testing.T) {
	// The headline claim (§7): for files up to half a megabyte the maximum
	// number of disk references is two — one for the FIT, one for the data.
	r := newRig(t, 1)
	id, err := r.svc.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	want := payload(512*1024, 4)
	if _, err := r.svc.WriteAt(id, 0, want); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Flush(); err != nil {
		t.Fatal(err)
	}
	// Cold caches, cold FIT.
	r.svc.InvalidateCaches()
	r.svc.DropFITCache()
	before := r.met.Get(metrics.DiskReferences)
	got, err := r.svc.ReadAt(id, 0, len(want))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("cold read failed: %v", err)
	}
	refs := r.met.Get(metrics.DiskReferences) - before
	if refs > 2 {
		t.Fatalf("cold read of 512KB file took %d disk references, want <= 2 (§7)", refs)
	}
}

func TestFITAdjacentToFirstBlock(t *testing.T) {
	// §5: the file index table and at least the first data block are always
	// contiguous, eliminating the seek between them (E11).
	r := newRig(t, 1)
	id, err := r.svc.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.svc.WriteAt(id, 0, payload(100, 5)); err != nil {
		t.Fatal(err)
	}
	_, fitAddr, err := r.svc.FITLocation(id)
	if err != nil {
		t.Fatal(err)
	}
	exts, err := r.svc.Extents(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) == 0 {
		t.Fatal("no extents after write")
	}
	if int(exts[0].Addr) != fitAddr+1 {
		t.Fatalf("first data block at %d, FIT at %d: not contiguous", exts[0].Addr, fitAddr)
	}
}

func TestOpenCloseRefCounting(t *testing.T) {
	r := newRig(t, 1)
	id, err := r.svc.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Open(id); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Open(id); err != nil {
		t.Fatal(err)
	}
	attr, err := r.svc.Attributes(id)
	if err != nil || attr.RefCount != 2 {
		t.Fatalf("RefCount = %d, %v; want 2", attr.RefCount, err)
	}
	// Open files cannot be deleted.
	if err := r.svc.Delete(id); !errors.Is(err, ErrFileBusy) {
		t.Fatalf("Delete of open file = %v, want ErrFileBusy", err)
	}
	if err := r.svc.Close(id); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Close(id); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Close(id); !errors.Is(err, ErrNotOpen) {
		t.Fatalf("extra Close = %v, want ErrNotOpen", err)
	}
}

func TestDeleteFreesSpace(t *testing.T) {
	r := newRig(t, 1)
	free0 := r.disks[0].FreeFragments()
	id, err := r.svc.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.svc.WriteAt(id, 0, payload(10*BlockSize, 6)); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Delete(id); err != nil {
		t.Fatal(err)
	}
	if got := r.disks[0].FreeFragments(); got != free0 {
		t.Fatalf("free fragments after delete = %d, want %d", got, free0)
	}
	if _, err := r.svc.ReadAt(id, 0, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read of deleted file = %v, want ErrNotFound", err)
	}
}

func TestDeleteEmptyFileFreesReservedBlock(t *testing.T) {
	r := newRig(t, 1)
	free0 := r.disks[0].FreeFragments()
	id, err := r.svc.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Delete(id); err != nil {
		t.Fatal(err)
	}
	if got := r.disks[0].FreeFragments(); got != free0 {
		t.Fatalf("free fragments after create+delete = %d, want %d", got, free0)
	}
}

func TestTruncate(t *testing.T) {
	r := newRig(t, 1)
	id, err := r.svc.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	want := payload(4*BlockSize, 7)
	if _, err := r.svc.WriteAt(id, 0, want); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Truncate(id, BlockSize+100); err != nil {
		t.Fatal(err)
	}
	size, err := r.svc.Size(id)
	if err != nil || size != BlockSize+100 {
		t.Fatalf("Size after truncate = %d, %v", size, err)
	}
	got, err := r.svc.ReadAt(id, 0, 2*BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != BlockSize+100 || !bytes.Equal(got, want[:BlockSize+100]) {
		t.Fatal("truncated content mismatch")
	}
	blocks, err := r.svc.BlockCount(id)
	if err != nil || blocks != 2 {
		t.Fatalf("BlockCount after truncate = %d, %v; want 2", blocks, err)
	}
}

func TestPersistenceAcrossMount(t *testing.T) {
	r := newRig(t, 2)
	id1, err := r.svc.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	want1 := payload(3*BlockSize, 8)
	if _, err := r.svc.WriteAt(id1, 0, want1); err != nil {
		t.Fatal(err)
	}
	id2, err := r.svc.Create(fit.Attributes{Service: fit.ServiceTransaction})
	if err != nil {
		t.Fatal(err)
	}
	want2 := payload(200, 9)
	if _, err := r.svc.WriteAt(id2, 0, want2); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// Remount over the same disk servers.
	svc2, err := Mount(Config{Disks: Servers(r.disks...), Metrics: r.met})
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	got, err := svc2.ReadAt(id1, 0, len(want1))
	if err != nil || !bytes.Equal(got, want1) {
		t.Fatalf("file 1 lost across mount: %v", err)
	}
	got, err = svc2.ReadAt(id2, 0, len(want2))
	if err != nil || !bytes.Equal(got, want2) {
		t.Fatalf("file 2 lost across mount: %v", err)
	}
	attr, err := svc2.Attributes(id2)
	if err != nil || attr.Service != fit.ServiceTransaction {
		t.Fatalf("attributes lost across mount: %+v, %v", attr, err)
	}
	// New files get fresh IDs.
	id3, err := svc2.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	if id3 == id1 || id3 == id2 {
		t.Fatalf("ID %d reused after mount", id3)
	}
}

func TestManyFilesFileMapChain(t *testing.T) {
	// More files than fit in the superfragment exercises the chain.
	r := newRig(t, 1)
	if entriesPerSuper >= 300 {
		t.Skip("superfragment too large for this test to exercise chaining")
	}
	var ids []FileID
	for i := 0; i < entriesPerSuper+20; i++ {
		id, err := r.svc.Create(fit.Attributes{})
		if err != nil {
			t.Fatalf("Create #%d: %v", i, err)
		}
		if _, err := r.svc.WriteAt(id, 0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := r.svc.Shutdown(); err != nil {
		t.Fatal(err)
	}
	svc2, err := Mount(Config{Disks: Servers(r.disks...)})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		got, err := svc2.ReadAt(id, 0, 1)
		if err != nil || len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("file %d content lost: %q, %v", id, got, err)
		}
	}
}

func TestStripingAcrossDisks(t *testing.T) {
	r := newRig(t, 4, func(c *Config) { c.Stripe = Spread; c.StripeUnitBlocks = 2 })
	id, err := r.svc.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	want := payload(16*BlockSize, 10)
	if _, err := r.svc.WriteAt(id, 0, want); err != nil {
		t.Fatal(err)
	}
	exts, err := r.svc.Extents(id)
	if err != nil {
		t.Fatal(err)
	}
	disksUsed := map[uint16]bool{}
	for _, e := range exts {
		disksUsed[e.Disk] = true
	}
	if len(disksUsed) < 3 {
		t.Fatalf("16-block spread file used %d disks, want >= 3", len(disksUsed))
	}
	got, err := r.svc.ReadAt(id, 0, len(want))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatal("striped round trip mismatch")
	}
}

func TestFileLargerThanOneDisk(t *testing.T) {
	// §7: a file can be partitioned across disks, so its size is bounded by
	// total space, not per-disk space. Two tiny disks, one file bigger than
	// either's free space.
	g := device.Geometry{FragmentsPerTrack: 32, Tracks: 16} // 1 MB per disk
	met := metrics.NewSet()
	var disks []*diskservice.Server
	for i := 0; i < 2; i++ {
		d, err := device.New(g, device.WithMetrics(met))
		if err != nil {
			t.Fatal(err)
		}
		sp, _ := device.New(g)
		sm, _ := device.New(g)
		st, err := stable.NewStore(sp, sm)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = st.Close() })
		srv, err := diskservice.Format(diskservice.Config{DiskID: i, Disk: d, Stable: st, Metrics: met})
		if err != nil {
			t.Fatal(err)
		}
		disks = append(disks, srv)
	}
	svc, err := New(Config{Disks: Servers(disks...), Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	// 1.5 MB file on two 1 MB disks.
	want := payload(192*BlockSize, 11)
	if _, err := svc.WriteAt(id, 0, want); err != nil {
		t.Fatalf("writing beyond one disk's capacity: %v", err)
	}
	got, err := svc.ReadAt(id, 0, len(want))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatal("cross-disk file round trip mismatch")
	}
	exts, err := svc.Extents(id)
	if err != nil {
		t.Fatal(err)
	}
	used := map[uint16]bool{}
	for _, e := range exts {
		used[e.Disk] = true
	}
	if len(used) != 2 {
		t.Fatalf("file spans %d disks, want 2", len(used))
	}
}

func TestIndirectBlocks(t *testing.T) {
	// Force more extents than the direct area holds: fragment the disk so
	// every allocation is a single block on alternating addresses.
	r := newRig(t, 2)
	id, err := r.svc.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	// Interleave two files' writes so extents cannot merge.
	id2, err := r.svc.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	chunk := payload(BlockSize, 12)
	for i := 0; i < fit.MaxDirectExtents+10; i++ {
		if _, err := r.svc.WriteAt(id, int64(i)*BlockSize, chunk); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if _, err := r.svc.WriteAt(id2, int64(i)*BlockSize, chunk); err != nil {
			t.Fatalf("interleaver write %d: %v", i, err)
		}
		want = append(want, chunk...)
	}
	if err := r.svc.Shutdown(); err != nil {
		t.Fatal(err)
	}
	svc2, err := Mount(Config{Disks: Servers(r.disks...)})
	if err != nil {
		t.Fatal(err)
	}
	exts, err := svc2.Extents(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) <= fit.MaxDirectExtents {
		t.Skipf("extents merged too well (%d); indirect path not exercised", len(exts))
	}
	got, err := svc2.ReadAt(id, 0, len(want))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatal("indirect file round trip mismatch after mount")
	}
}

func TestFITCorruptionHealsFromStable(t *testing.T) {
	r := newRig(t, 1)
	id, err := r.svc.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	want := payload(100, 13)
	if _, err := r.svc.WriteAt(id, 0, want); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Flush(); err != nil {
		t.Fatal(err)
	}
	_, fitAddr, err := r.svc.FITLocation(id)
	if err != nil {
		t.Fatal(err)
	}
	r.svc.DropFITCache()
	r.svc.InvalidateCaches()
	// Corrupt the on-disk FIT; the stable copy must save the file.
	if err := r.devs[0].CorruptFragment(fitAddr); err != nil {
		t.Fatal(err)
	}
	got, err := r.svc.ReadAt(id, 0, 100)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read with corrupt FIT = %v (stable copy should heal)", err)
	}
}

func TestServerCacheServesRereads(t *testing.T) {
	r := newRig(t, 1)
	id, err := r.svc.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.svc.WriteAt(id, 0, payload(2*BlockSize, 14)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.svc.ReadAt(id, 0, 2*BlockSize); err != nil {
		t.Fatal(err)
	}
	before := r.met.Get(metrics.DiskReferences)
	for i := 0; i < 10; i++ {
		if _, err := r.svc.ReadAt(id, 0, 2*BlockSize); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.met.Get(metrics.DiskReferences) - before; got != 0 {
		t.Fatalf("rereads hit the disk %d times, want 0 (server cache)", got)
	}
	if r.met.Get(metrics.ServerCacheHit) == 0 {
		t.Fatal("no server-cache hits recorded")
	}
}

func TestErrorCases(t *testing.T) {
	r := newRig(t, 1)
	if _, err := r.svc.ReadAt(999, 0, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read of missing file = %v", err)
	}
	id, err := r.svc.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.svc.ReadAt(id, -1, 1); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("negative offset read = %v", err)
	}
	if _, err := r.svc.WriteAt(id, -1, []byte("x")); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("negative offset write = %v", err)
	}
	if err := r.svc.Truncate(id, -1); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("negative truncate = %v", err)
	}
	if err := r.svc.Open(999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("open of missing file = %v", err)
	}
	if err := r.svc.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.svc.Create(fit.Attributes{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after shutdown = %v", err)
	}
}

func TestSetLockingAndServicePersist(t *testing.T) {
	r := newRig(t, 1)
	id, err := r.svc.Create(fit.Attributes{Locking: fit.LockPage})
	if err != nil {
		t.Fatal(err)
	}
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
	if attr.Locking != fit.LockPage || attr.Service != fit.ServiceTransaction {
		t.Fatalf("attributes not persisted: %+v", attr)
	}
}

func TestReplaceBlockDescriptor(t *testing.T) {
	r := newRig(t, 1)
	id, err := r.svc.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	orig := payload(3*BlockSize, 15)
	if _, err := r.svc.WriteAt(id, 0, orig); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Flush(); err != nil {
		t.Fatal(err)
	}
	// Stage a shadow block with new content for logical block 1.
	shadow := payload(BlockSize, 16)
	addr, err := r.disks[0].AllocateBlocks(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.disks[0].Put(context.Background(), addr, shadow, diskservice.PutOptions{}); err != nil {
		t.Fatal(err)
	}
	extsBefore, _, err := r.svc.ContiguityProfile(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.svc.ReplaceBlockDescriptor(id, 1, fit.Extent{Disk: 0, Addr: uint32(addr), Count: 1}); err != nil {
		t.Fatal(err)
	}
	// Contents: block 0 and 2 unchanged, block 1 is the shadow.
	got, err := r.svc.ReadAt(id, 0, 3*BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:BlockSize], orig[:BlockSize]) ||
		!bytes.Equal(got[BlockSize:2*BlockSize], shadow) ||
		!bytes.Equal(got[2*BlockSize:], orig[2*BlockSize:]) {
		t.Fatal("shadow swap produced wrong contents")
	}
	// The paper's point: shadow paging destroys contiguity (§6.7).
	extsAfter, _, err := r.svc.ContiguityProfile(id)
	if err != nil {
		t.Fatal(err)
	}
	if extsAfter <= extsBefore {
		t.Fatalf("extents before %d, after %d: shadow swap should fragment", extsBefore, extsAfter)
	}
	// And it survives a remount (FIT was persisted synchronously).
	if err := r.svc.Shutdown(); err != nil {
		t.Fatal(err)
	}
	svc2, err := Mount(Config{Disks: Servers(r.disks...)})
	if err != nil {
		t.Fatal(err)
	}
	got, err = svc2.ReadAt(id, BlockSize, BlockSize)
	if err != nil || !bytes.Equal(got, shadow) {
		t.Fatal("shadow swap lost across mount")
	}
}

func TestWriteBlockThroughAndReadBlock(t *testing.T) {
	r := newRig(t, 1)
	id, err := r.svc.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	blk := payload(BlockSize, 17)
	if err := r.svc.WriteBlockThrough(id, 0, blk); err != nil {
		t.Fatal(err)
	}
	// As a page commit does, the size is set apart from the block write.
	if err := r.svc.Truncate(id, BlockSize); err != nil {
		t.Fatal(err)
	}
	got, err := r.svc.ReadAt(id, 0, BlockSize)
	if err != nil || !bytes.Equal(got, blk) {
		t.Fatal("block round trip mismatch")
	}
	if err := r.svc.WriteBlockThrough(id, 0, []byte("short")); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("short block write = %v", err)
	}
}
