package diskservice

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/stable"
)

// testRig bundles a formatted server with its underlying pieces.
type testRig struct {
	srv  *Server
	disk *device.Disk
	st   *stable.Store
	met  *metrics.Set
}

func newRig(t *testing.T, opts ...func(*Config)) *testRig {
	t.Helper()
	g := device.Geometry{FragmentsPerTrack: 8, Tracks: 32}
	met := metrics.NewSet()
	disk, err := device.New(g, device.WithMetrics(met))
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
	st, err := stable.NewStore(sp, sm, stable.WithMetrics(met))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	cfg := Config{DiskID: 1, Disk: disk, Stable: st, Metrics: met}
	for _, o := range opts {
		o(&cfg)
	}
	srv, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{srv: srv, disk: disk, st: st, met: met}
}

func frag(n int, seed byte) []byte {
	b := make([]byte, n*FragmentSize)
	for i := range b {
		b[i] = seed + byte(i%251)
	}
	return b
}

func TestConfigValidation(t *testing.T) {
	g := device.Geometry{FragmentsPerTrack: 8, Tracks: 8}
	disk, _ := device.New(g)
	sp, _ := device.New(g)
	sm, _ := device.New(g)
	st, err := stable.NewStore(sp, sm)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	if _, err := Format(Config{Disk: nil, Stable: st}); err == nil {
		t.Fatal("nil disk accepted")
	}
	if _, err := Format(Config{Disk: disk, Stable: nil}); err == nil {
		t.Fatal("nil stable accepted")
	}
	// Mismatched stable capacity.
	op, _ := device.New(device.Geometry{FragmentsPerTrack: 4, Tracks: 4})
	om, _ := device.New(device.Geometry{FragmentsPerTrack: 4, Tracks: 4})
	ost, err := stable.NewStore(op, om)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ost.Close() }()
	if _, err := Format(Config{Disk: disk, Stable: ost}); err == nil {
		t.Fatal("mismatched stable capacity accepted")
	}
}

func TestAllocatePutGetRoundTrip(t *testing.T) {
	r := newRig(t)
	addr, err := r.srv.AllocateBlocks(2) // 8 fragments
	if err != nil {
		t.Fatal(err)
	}
	want := frag(8, 3)
	if err := r.srv.Put(context.Background(), addr, want, PutOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := r.srv.Get(context.Background(), addr, 8, GetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("round trip mismatch")
	}
}

func TestAllocationAvoidsMetadataRegion(t *testing.T) {
	r := newRig(t)
	meta := r.srv.MetadataFragments()
	if meta < 2 {
		t.Fatalf("MetadataFragments = %d, want >= 2", meta)
	}
	for i := 0; i < 8; i++ {
		addr, err := r.srv.AllocateFragments(4)
		if err != nil {
			t.Fatal(err)
		}
		if addr < meta {
			t.Fatalf("allocation at %d inside metadata region [0,%d)", addr, meta)
		}
	}
}

func TestContiguousGetIsOneReference(t *testing.T) {
	r := newRig(t, func(c *Config) { c.DisableReadAhead = true })
	addr, err := r.srv.AllocateBlocks(4) // 16 fragments, spans tracks
	if err != nil {
		t.Fatal(err)
	}
	if err := r.srv.Put(context.Background(), addr, frag(16, 1), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	before := r.met.Get(metrics.DiskReferences)
	if _, err := r.srv.Get(context.Background(), addr, 16, GetOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := r.met.Get(metrics.DiskReferences) - before; got != 1 {
		t.Fatalf("contiguous 4-block get took %d references, want 1 (paper §4)", got)
	}
}

func TestTrackReadAhead(t *testing.T) {
	r := newRig(t)
	// Lay out data on one track past the metadata region.
	meta := r.srv.MetadataFragments()
	trackStart := ((meta / 8) + 1) * 8 // first full track above metadata
	if err := r.srv.Put(context.Background(), trackStart, frag(8, 9), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	r.srv.InvalidateCache()
	before := r.met.Get(metrics.DiskReferences)
	// First fragment read misses and fetches the whole track.
	if _, err := r.srv.Get(context.Background(), trackStart, 1, GetOptions{}); err != nil {
		t.Fatal(err)
	}
	// Subsequent fragments on the same track are served from cache.
	for i := 1; i < 8; i++ {
		if _, err := r.srv.Get(context.Background(), trackStart+i, 1, GetOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.met.Get(metrics.DiskReferences) - before; got != 1 {
		t.Fatalf("8 same-track fragment reads took %d disk references, want 1", got)
	}
	if hits := r.met.Get(metrics.TrackCacheHit); hits != 7 {
		t.Fatalf("track cache hits = %d, want 7", hits)
	}
}

func TestReadAheadDisabled(t *testing.T) {
	r := newRig(t, func(c *Config) { c.DisableReadAhead = true })
	meta := r.srv.MetadataFragments()
	start := ((meta / 8) + 1) * 8
	if err := r.srv.Put(context.Background(), start, frag(8, 2), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	before := r.met.Get(metrics.DiskReferences)
	for i := 0; i < 8; i++ {
		if _, err := r.srv.Get(context.Background(), start+i, 1, GetOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.met.Get(metrics.DiskReferences) - before; got != 8 {
		t.Fatalf("no-readahead fragment reads took %d references, want 8", got)
	}
}

func TestTrackCacheCoherentWithWrites(t *testing.T) {
	r := newRig(t)
	meta := r.srv.MetadataFragments()
	start := ((meta / 8) + 1) * 8
	if err := r.srv.Put(context.Background(), start, frag(8, 1), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	r.srv.InvalidateCache()
	if _, err := r.srv.Get(context.Background(), start, 1, GetOptions{}); err != nil { // populate track cache
		t.Fatal(err)
	}
	want := frag(1, 77)
	if err := r.srv.Put(context.Background(), start+3, want, PutOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := r.srv.Get(context.Background(), start+3, 1, GetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("track cache served stale data after overlapping write")
	}
}

func TestPutStableOnly(t *testing.T) {
	r := newRig(t)
	addr, err := r.srv.AllocateFragments(1)
	if err != nil {
		t.Fatal(err)
	}
	main := frag(1, 5)
	if err := r.srv.Put(context.Background(), addr, main, PutOptions{}); err != nil {
		t.Fatal(err)
	}
	shadow := frag(1, 99)
	if err := r.srv.Put(context.Background(), addr, shadow, PutOptions{Stability: StableOnly, WaitStable: true}); err != nil {
		t.Fatal(err)
	}
	// Main storage still holds the original (the shadow-page property).
	got, err := r.srv.Get(context.Background(), addr, 1, GetOptions{NoReadAhead: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, main) {
		t.Fatal("StableOnly put modified main storage")
	}
	// Stable storage holds the shadow.
	got, err = r.srv.Get(context.Background(), addr, 1, GetOptions{FromStable: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatal("StableOnly put did not reach stable storage")
	}
}

func TestPutMainAndStable(t *testing.T) {
	r := newRig(t)
	addr, err := r.srv.AllocateFragments(2)
	if err != nil {
		t.Fatal(err)
	}
	want := frag(2, 8)
	if err := r.srv.Put(context.Background(), addr, want, PutOptions{Stability: MainAndStable, WaitStable: true}); err != nil {
		t.Fatal(err)
	}
	for _, fromStable := range []bool{false, true} {
		got, err := r.srv.Get(context.Background(), addr, 2, GetOptions{FromStable: fromStable, NoReadAhead: true})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("copy (stable=%v) differs", fromStable)
		}
	}
}

func TestPutDeferredStable(t *testing.T) {
	r := newRig(t)
	addr, err := r.srv.AllocateFragments(1)
	if err != nil {
		t.Fatal(err)
	}
	want := frag(1, 6)
	if err := r.srv.Put(context.Background(), addr, want, PutOptions{Stability: MainAndStable, WaitStable: false}); err != nil {
		t.Fatal(err)
	}
	if err := r.srv.Flush(); err != nil { // flush-block drains deferred stable writes
		t.Fatal(err)
	}
	got, err := r.srv.Get(context.Background(), addr, 1, GetOptions{FromStable: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("deferred stable write not durable after Flush")
	}
}

func TestFreeAndReuse(t *testing.T) {
	r := newRig(t)
	addr, err := r.srv.AllocateFragments(4)
	if err != nil {
		t.Fatal(err)
	}
	free := r.srv.FreeFragments()
	if err := r.srv.Free(addr, 4); err != nil {
		t.Fatal(err)
	}
	if got := r.srv.FreeFragments(); got != free+4 {
		t.Fatalf("FreeFragments = %d, want %d", got, free+4)
	}
	if err := r.srv.Free(addr, 4); err == nil {
		t.Fatal("double free succeeded")
	}
}

func TestMountRestoresBitmap(t *testing.T) {
	r := newRig(t)
	addr, err := r.srv.AllocateFragments(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.srv.Put(context.Background(), addr, frag(6, 4), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	freeBefore := r.srv.FreeFragments()
	if err := r.srv.Flush(); err != nil {
		t.Fatal(err)
	}
	// Remount on the same devices.
	srv2, err := Mount(Config{DiskID: 1, Disk: r.disk, Stable: r.st, Metrics: r.met})
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	if got := srv2.FreeFragments(); got != freeBefore {
		t.Fatalf("remounted FreeFragments = %d, want %d", got, freeBefore)
	}
	// Allocated data must still be there and new allocations must not
	// overlap it.
	got, err := srv2.Get(context.Background(), addr, 6, GetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, frag(6, 4)) {
		t.Fatal("data lost across remount")
	}
	for i := 0; i < 4; i++ {
		a, err := srv2.AllocateFragments(2)
		if err != nil {
			t.Fatal(err)
		}
		if a >= addr && a < addr+6 {
			t.Fatalf("remounted allocator reused live fragment %d", a)
		}
	}
}

func TestMountUnformattedFails(t *testing.T) {
	g := device.Geometry{FragmentsPerTrack: 8, Tracks: 8}
	disk, _ := device.New(g)
	sp, _ := device.New(g)
	sm, _ := device.New(g)
	st, err := stable.NewStore(sp, sm)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	if _, err := Mount(Config{Disk: disk, Stable: st}); !errors.Is(err, ErrNotFormatted) {
		t.Fatalf("Mount of blank disk = %v, want ErrNotFormatted", err)
	}
}

func TestMountRecoversBitmapFromStable(t *testing.T) {
	r := newRig(t)
	if _, err := r.srv.AllocateFragments(5); err != nil {
		t.Fatal(err)
	}
	freeBefore := r.srv.FreeFragments()
	if err := r.srv.Flush(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the on-disk bitmap; the stable mirror must save the mount.
	if err := r.disk.CorruptFragment(1); err != nil {
		t.Fatal(err)
	}
	srv2, err := Mount(Config{DiskID: 1, Disk: r.disk, Stable: r.st})
	if err != nil {
		t.Fatalf("Mount with corrupt bitmap: %v", err)
	}
	if got := srv2.FreeFragments(); got != freeBefore {
		t.Fatalf("recovered FreeFragments = %d, want %d", got, freeBefore)
	}
}

func TestGetFromStableBypassesTrackCache(t *testing.T) {
	r := newRig(t)
	addr, err := r.srv.AllocateFragments(1)
	if err != nil {
		t.Fatal(err)
	}
	stableData := frag(1, 42)
	if err := r.srv.Put(context.Background(), addr, stableData, PutOptions{Stability: StableOnly, WaitStable: true}); err != nil {
		t.Fatal(err)
	}
	mainData := frag(1, 24)
	if err := r.srv.Put(context.Background(), addr, mainData, PutOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := r.srv.Get(context.Background(), addr, 1, GetOptions{FromStable: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, stableData) {
		t.Fatal("FromStable get returned main-storage data")
	}
}

func TestStabilityString(t *testing.T) {
	for s, want := range map[Stability]string{
		MainOnly:      "main-only",
		StableOnly:    "stable-only",
		MainAndStable: "main+stable",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestAllocateAtAndFirstFit(t *testing.T) {
	r := newRig(t)
	meta := r.srv.MetadataFragments()
	if err := r.srv.AllocateAt(meta+10, 4); err != nil {
		t.Fatal(err)
	}
	if err := r.srv.AllocateAt(meta+10, 1); err == nil {
		t.Fatal("double AllocateAt succeeded")
	}
	addr, err := r.srv.AllocateFragments(2)
	if err != nil {
		t.Fatal(err)
	}
	if addr >= meta+10 && addr < meta+14 {
		t.Fatalf("allocation returned reserved fragment %d", addr)
	}
}

func TestResetBitmapPreservesMetadataRegion(t *testing.T) {
	r := newRig(t)
	if _, err := r.srv.AllocateFragments(8); err != nil {
		t.Fatal(err)
	}
	if err := r.srv.ResetBitmap(); err != nil {
		t.Fatal(err)
	}
	if got := r.srv.FreeFragments(); got != r.srv.Capacity()-r.srv.MetadataFragments() {
		t.Fatalf("FreeFragments after reset = %d, want %d",
			got, r.srv.Capacity()-r.srv.MetadataFragments())
	}
	// The metadata region stays reserved.
	addr, err := r.srv.AllocateFragments(1)
	if err != nil {
		t.Fatal(err)
	}
	if addr < r.srv.MetadataFragments() {
		t.Fatalf("allocation at %d inside metadata region", addr)
	}
}

func TestPutDefaultStabilityIsMainOnly(t *testing.T) {
	r := newRig(t)
	addr, err := r.srv.AllocateFragments(1)
	if err != nil {
		t.Fatal(err)
	}
	before := r.met.Get(metrics.StableWrites)
	if err := r.srv.Put(context.Background(), addr, frag(1, 1), PutOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := r.srv.Flush(); err != nil {
		t.Fatal(err)
	}
	// Flush writes the bitmap/superblock to stable (2 writes), but the data
	// put itself must not have touched stable storage.
	if got := r.met.Get(metrics.StableWrites) - before; got > 2 {
		t.Fatalf("MainOnly put produced %d stable writes", got)
	}
}

func TestGetOutOfRange(t *testing.T) {
	r := newRig(t)
	if _, err := r.srv.Get(context.Background(), -1, 1, GetOptions{}); err == nil {
		t.Fatal("negative address accepted")
	}
	if _, err := r.srv.Get(context.Background(), r.srv.Capacity(), 1, GetOptions{}); err == nil {
		t.Fatal("past-end address accepted")
	}
	if _, err := r.srv.Get(context.Background(), 0, 0, GetOptions{}); err == nil {
		t.Fatal("zero-length get accepted")
	}
}

// cachedEqualsDevice fails the test unless every fragment of the track
// starting at trackStart reads the same through the track cache as from the
// device.
func cachedEqualsDevice(t *testing.T, r *testRig, trackStart, frags int) {
	t.Helper()
	for i := 0; i < frags; i++ {
		got, err := r.srv.Get(context.Background(), trackStart+i, 1, GetOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := r.disk.ReadFragments(context.Background(), trackStart+i, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("fragment %d of the track: the track cache holds bytes the device does not", i)
		}
	}
}

// TestConcurrentPutsToOneCachedTrack: puts to disjoint fragments of a cached
// track must all land in the cached image. (A copy-out, patch, copy-back
// update loses one of two racing patches, and later reads through the cache
// return the older bytes — parity read-modify-write reads its old parity
// there.)
func TestConcurrentPutsToOneCachedTrack(t *testing.T) {
	r := newRig(t)
	const frags = 8 // one track of the rig's geometry
	trackStart := (r.srv.MetadataFragments()/frags + 1) * frags
	if err := r.srv.AllocateAt(trackStart, frags); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 200; round++ {
		if _, err := r.srv.Get(context.Background(), trackStart, 1, GetOptions{}); err != nil { // cache the track
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < frags; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := r.srv.Put(context.Background(), trackStart+i, frag(1, byte(round*frags+i)), PutOptions{}); err != nil {
					t.Error(err)
				}
			}(i)
		}
		wg.Wait()
		cachedEqualsDevice(t, r, trackStart, frags)
	}
}

// TestGetMissRacingPut: a get that misses reads the track before it installs
// it; a put landing in between must not leave the older image cached.
func TestGetMissRacingPut(t *testing.T) {
	r := newRig(t)
	const frags = 8
	trackStart := (r.srv.MetadataFragments()/frags + 1) * frags
	if err := r.srv.AllocateAt(trackStart, frags); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2000; round++ {
		r.srv.InvalidateCache()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := r.srv.Get(context.Background(), trackStart, 1, GetOptions{}); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			if err := r.srv.Put(context.Background(), trackStart+1, frag(1, byte(round)), PutOptions{}); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		cachedEqualsDevice(t, r, trackStart, frags)
	}
}

// TestGetIntoFailsBeforeCharging: a get-block on a failed disk, over an
// unreadable fragment, off the disk or into a buffer shorter than the span
// returns the allocating form's error and charges no disk reference, seek or
// byte; without read-ahead it counts nothing at all (with it, the track
// cache counts the lookup that missed).
func TestGetIntoFailsBeforeCharging(t *testing.T) {
	ctx := context.Background()
	for _, readAhead := range []bool{false, true} {
		for _, c := range []struct {
			name  string
			setup func(r *testRig, addr int)
			addr  func(r *testRig) int
			n     int
			dst   int
			want  error
		}{
			{"failed", func(r *testRig, _ int) { r.disk.Fail() }, nil, 2, 2 * FragmentSize, device.ErrFailed},
			{"bad fragment", func(r *testRig, addr int) { _ = r.disk.CorruptFragment(addr + 1) }, nil, 2, 2 * FragmentSize, device.ErrMediaError},
			{"out of range", func(*testRig, int) {}, func(r *testRig) int { return r.srv.Capacity() - 1 }, 2, 2 * FragmentSize, device.ErrOutOfRange},
			{"short dst", func(*testRig, int) {}, nil, 2, 2*FragmentSize - 1, device.ErrShortBuffer},
		} {
			t.Run(fmt.Sprintf("%s/readAhead=%v", c.name, readAhead), func(t *testing.T) {
				r := newRig(t)
				addr, err := r.srv.AllocateFragments(8)
				if err != nil {
					t.Fatal(err)
				}
				if c.addr != nil {
					addr = c.addr(r)
				}
				c.setup(r, addr)
				opts := GetOptions{NoReadAhead: !readAhead}
				before := r.met.Snapshot()
				err = r.srv.GetInto(ctx, addr, c.n, make([]byte, c.dst), opts)
				if !errors.Is(err, c.want) {
					t.Fatalf("GetInto = %v, want %v", err, c.want)
				}
				if c.want != device.ErrShortBuffer {
					if _, aerr := r.srv.Get(ctx, addr, c.n, opts); aerr == nil || aerr.Error() != err.Error() {
						t.Fatalf("GetInto = %v, Get = %v", err, aerr)
					}
				}
				diff := r.met.Diff(before)
				for _, name := range []string{metrics.DiskReferences, metrics.DiskSeeks, metrics.DiskBytesRead} {
					if diff[name] != 0 {
						t.Fatalf("a failed get-block charged %d %s", diff[name], name)
					}
				}
				if !readAhead && len(diff) != 0 {
					t.Fatalf("a failed get-block counted %v", diff)
				}
			})
		}
	}
}

// TestGetIntoFromTheTrackCache: a track-cache hit copies the fragments
// straight into the caller's buffer, at no disk reference, and leaves the
// rest of the buffer alone.
func TestGetIntoFromTheTrackCache(t *testing.T) {
	r := newRig(t)
	meta := r.srv.MetadataFragments()
	trackStart := ((meta / 8) + 1) * 8
	want := frag(8, 5)
	if err := r.srv.Put(context.Background(), trackStart, want, PutOptions{}); err != nil {
		t.Fatal(err)
	}
	r.srv.InvalidateCache()
	dst := bytes.Repeat([]byte{0xAA}, 4*FragmentSize)
	if err := r.srv.GetInto(context.Background(), trackStart, 1, dst, GetOptions{}); err != nil {
		t.Fatal(err)
	}
	refs := r.met.Get(metrics.DiskReferences)
	if err := r.srv.GetInto(context.Background(), trackStart+2, 3, dst, GetOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := r.met.Get(metrics.DiskReferences) - refs; got != 0 {
		t.Fatalf("a track-cache hit took %d disk references", got)
	}
	if !bytes.Equal(dst[:3*FragmentSize], want[2*FragmentSize:5*FragmentSize]) || !bytes.Equal(dst[3*FragmentSize:], bytes.Repeat([]byte{0xAA}, FragmentSize)) {
		t.Fatal("GetInto from the track cache did not fill exactly the span")
	}
}
