package parity

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/diskservice"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/polltest"
	"repro/internal/stable"
)

// rig is a parity array over n freshly formatted disk services, with the
// underlying devices exposed for fault injection.
type rig struct {
	arr   *Array
	srvs  []*diskservice.Server
	disks []*device.Disk
	met   *metrics.Set
}

func newRig(t *testing.T, n int, opts ...func(*Config)) *rig {
	t.Helper()
	g := device.Geometry{FragmentsPerTrack: 8, Tracks: 32}
	met := metrics.NewSet()
	r := &rig{met: met}
	for i := 0; i < n; i++ {
		r.addDisk(t, g, i)
	}
	cfg := Config{Disks: r.srvs, Metrics: met}
	for _, o := range opts {
		o(&cfg)
	}
	arr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.arr = arr
	return r
}

// addDisk formats one more disk service and appends it to the rig (used for
// the initial members and for replacement disks).
func (r *rig) addDisk(t *testing.T, g device.Geometry, id int, opts ...stable.Option) *diskservice.Server {
	t.Helper()
	disk, err := device.New(g)
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
	st, err := stable.NewStore(sp, sm, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	srv, err := diskservice.Format(diskservice.Config{DiskID: id, Disk: disk, Stable: st, Metrics: r.met})
	if err != nil {
		t.Fatal(err)
	}
	r.srvs = append(r.srvs, srv)
	r.disks = append(r.disks, disk)
	return srv
}

func pattern(frags int, seed int64) []byte {
	b := make([]byte, frags*FragmentSize)
	rnd := rand.New(rand.NewSource(seed))
	rnd.Read(b)
	return b
}

func mustGet(t *testing.T, a *Array, addr, n int) []byte {
	t.Helper()
	b, err := a.getAlloc(context.Background(), addr, n, diskservice.GetOptions{})
	if err != nil {
		t.Fatalf("Get(%d,%d): %v", addr, n, err)
	}
	return b
}

func checkClean(t *testing.T, a *Array) {
	t.Helper()
	bad, err := a.CheckParity()
	if err != nil {
		t.Fatalf("CheckParity: %v", err)
	}
	if len(bad) != 0 {
		t.Fatalf("parity invariant violated on stripes %v", bad)
	}
}

func TestGeometry(t *testing.T) {
	r := newRig(t, 5)
	a := r.arr
	if a.DataDisks() != 4 || a.Disks() != 5 {
		t.Fatalf("got %d/%d disks", a.DataDisks(), a.Disks())
	}
	if got, want := a.StorageOverhead(), 1.25; got != want {
		t.Fatalf("overhead %v, want %v", got, want)
	}
	if a.Capacity() != a.Stripes()*a.DataDisks() {
		t.Fatalf("capacity %d inconsistent", a.Capacity())
	}
	// Every (stripe, unit) maps to a distinct disk, none the parity disk.
	for s := 0; s < 10; s++ {
		seen := map[int]bool{a.parityDisk(s): true}
		for j := 0; j < a.k; j++ {
			d := a.dataDisk(s, j)
			if seen[d] {
				t.Fatalf("stripe %d: disk %d used twice", s, d)
			}
			seen[d] = true
		}
	}
	if _, err := New(Config{Disks: r.srvs[:2]}); !errors.Is(err, ErrTooFewDisks) {
		t.Fatalf("2-disk array: %v", err)
	}
}

func TestRoundTripAndParityInvariant(t *testing.T) {
	r := newRig(t, 5)
	a := r.arr

	// Full-stripe aligned write (4 fragments = one stripe at unit 1).
	full := pattern(4*3, 1)
	if err := a.Put(context.Background(), 0, full, diskservice.PutOptions{}); err != nil {
		t.Fatal(err)
	}
	// Unaligned partial writes exercising RMW across stripe boundaries.
	part := pattern(5, 2)
	if err := a.Put(context.Background(), 17, part, diskservice.PutOptions{}); err != nil {
		t.Fatal(err)
	}
	single := pattern(1, 3)
	if err := a.Put(context.Background(), 30, single, diskservice.PutOptions{}); err != nil {
		t.Fatal(err)
	}

	if got := mustGet(t, a, 0, 12); !bytes.Equal(got, full) {
		t.Fatal("full-stripe round trip mismatch")
	}
	if got := mustGet(t, a, 17, 5); !bytes.Equal(got, part) {
		t.Fatal("partial round trip mismatch")
	}
	if got := mustGet(t, a, 30, 1); !bytes.Equal(got, single) {
		t.Fatal("single-fragment round trip mismatch")
	}
	if r.met.Get(metrics.ParityFullStripeWrites) == 0 {
		t.Error("expected full-stripe writes")
	}
	if r.met.Get(metrics.ParityRMWWrites) == 0 {
		t.Error("expected RMW writes")
	}
	checkClean(t, a)
}

// TestFlushCrashOnMemberUnwindsToCaller: a crash point reached while the
// array flushes a member off the caller's goroutine — the second member's
// stable write — unwinds to the caller's fault.Run instead of killing the
// process.
func TestFlushCrashOnMemberUnwindsToCaller(t *testing.T) {
	g := device.Geometry{FragmentsPerTrack: 8, Tracks: 32}
	inj := fault.NewInjector(1)
	r := &rig{met: metrics.NewSet()}
	for i := 0; i < 3; i++ {
		var opts []stable.Option
		if i == 1 {
			opts = append(opts, stable.WithFault(inj))
		}
		r.addDisk(t, g, i, opts...)
	}
	a, err := New(Config{Disks: r.srvs, Metrics: r.met})
	if err != nil {
		t.Fatal(err)
	}
	inj.Arm(stable.PtWriteBeforePrimary, fault.Action{Kind: fault.KindCrash})
	crashed, err := fault.Run(a.Flush)
	if crashed == nil {
		t.Fatalf("Flush with the second member's stable write armed: no crash (err %v)", err)
	}
}

func TestDegradedRead(t *testing.T) {
	for fail := 0; fail < 5; fail++ {
		r := newRig(t, 5)
		a := r.arr
		data := pattern(40, int64(fail))
		if err := a.Put(context.Background(), 3, data, diskservice.PutOptions{}); err != nil {
			t.Fatal(err)
		}
		r.disks[fail].Fail()
		a.InvalidateCache() // force real reads, not track-cache hits
		if err := a.MarkFailed(fail); err != nil {
			t.Fatal(err)
		}
		got := mustGet(t, a, 3, 40)
		if !bytes.Equal(got, data) {
			t.Fatalf("degraded read with disk %d down: mismatch", fail)
		}
		if r.met.Get(metrics.ParityDegradedReads) == 0 {
			t.Errorf("disk %d: no degraded reads counted", fail)
		}
	}
}

func TestAutoFailureDetection(t *testing.T) {
	r := newRig(t, 5)
	a := r.arr
	data := pattern(40, 7)
	if err := a.Put(context.Background(), 0, data, diskservice.PutOptions{}); err != nil {
		t.Fatal(err)
	}
	// Fail a disk without telling the array: the first read that trips over
	// ErrFailed must flip to degraded mode and retry via reconstruction.
	r.disks[2].Fail()
	a.InvalidateCache()
	got := mustGet(t, a, 0, 40)
	if !bytes.Equal(got, data) {
		t.Fatal("auto-detected degraded read mismatch")
	}
	if a.FailedDisk() != 2 {
		t.Fatalf("failed disk = %d, want 2", a.FailedDisk())
	}
}

func TestDegradedWrite(t *testing.T) {
	for fail := 0; fail < 5; fail++ {
		r := newRig(t, 5)
		a := r.arr
		base := pattern(60, int64(10+fail))
		if err := a.Put(context.Background(), 0, base, diskservice.PutOptions{}); err != nil {
			t.Fatal(err)
		}
		r.disks[fail].Fail()
		a.InvalidateCache()
		if err := a.MarkFailed(fail); err != nil {
			t.Fatal(err)
		}
		// Overwrite a mix of full stripes and partial spans while degraded.
		over1 := pattern(8, int64(20+fail)) // stripes 0-1, full
		copy(base[0:], over1)
		if err := a.Put(context.Background(), 0, over1, diskservice.PutOptions{}); err != nil {
			t.Fatalf("degraded full-stripe write, disk %d down: %v", fail, err)
		}
		over2 := pattern(5, int64(30+fail)) // partial, crosses stripes
		copy(base[22*FragmentSize:], over2)
		if err := a.Put(context.Background(), 22, over2, diskservice.PutOptions{}); err != nil {
			t.Fatalf("degraded partial write, disk %d down: %v", fail, err)
		}
		if got := mustGet(t, a, 0, 60); !bytes.Equal(got, base) {
			t.Fatalf("degraded read-back after writes, disk %d down: mismatch", fail)
		}
		if r.met.Get(metrics.ParityDegradedWrites) == 0 {
			t.Errorf("disk %d: no degraded writes counted", fail)
		}

		// Replace and rebuild; everything must match byte for byte and the
		// parity invariant must hold on every stripe.
		repl := r.addDisk(t, device.Geometry{FragmentsPerTrack: 8, Tracks: 32}, 90+fail)
		if err := a.ReplaceDisk(fail, repl); err != nil {
			t.Fatal(err)
		}
		if err := a.Rebuild(); err != nil {
			t.Fatal(err)
		}
		if a.Degraded() {
			t.Fatal("still degraded after rebuild")
		}
		if got := mustGet(t, a, 0, 60); !bytes.Equal(got, base) {
			t.Fatalf("post-rebuild read-back, disk %d: mismatch", fail)
		}
		checkClean(t, a)
		if done, total := a.rebuildProgress(); done != total {
			t.Fatalf("rebuild progress %d/%d after completion", done, total)
		}
	}
}

// TestDegradedWriteReads counts the member reads of each degraded-write
// shape on five disks with disk 1 lost. Stripe 0 keeps its parity on disk 0
// and data unit 0 on disk 1; stripe 1 keeps its parity on disk 1. A write
// covering the lost unit reads only the units it leaves untouched — never
// the old parity or the units it overwrites — and a full stripe or a stripe
// whose lost disk is its parity reads nothing.
func TestDegradedWriteReads(t *testing.T) {
	for _, c := range []struct {
		name        string
		addr, frags int
		reads       int64
	}{
		{"lost unit alone", 0, 1, 3},
		{"lost unit and one other", 0, 2, 2},
		{"full stripe", 0, 4, 0},
		{"lost parity, one unit", 4, 1, 0},
		{"lost parity, full stripe", 4, 4, 0},
	} {
		r := newRig(t, 5)
		a := r.arr
		img := pattern(8, 11)
		if err := a.Put(context.Background(), 0, img, diskservice.PutOptions{}); err != nil {
			t.Fatal(err)
		}
		r.disks[1].Fail()
		if err := a.MarkFailed(1); err != nil {
			t.Fatal(err)
		}
		a.InvalidateCache()
		memberReads := func() int64 {
			return r.met.Get(metrics.TrackCacheHit) + r.met.Get(metrics.TrackCacheMiss)
		}
		before := memberReads()
		update := pattern(c.frags, 12)
		if err := a.Put(context.Background(), c.addr, update, diskservice.PutOptions{}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := memberReads() - before; got != c.reads {
			t.Errorf("%s: %d member reads, want %d", c.name, got, c.reads)
		}
		copy(img[c.addr*FragmentSize:], update)
		if got := mustGet(t, a, 0, 8); !bytes.Equal(got, img) {
			t.Fatalf("%s: degraded read-back mismatch", c.name)
		}
	}
}

// TestFlushNotesMemberFailures: a member failing under Flush is noted like a
// failure of any other member I/O. One failure degrades the array and the
// survivors' flush stands; a second distinct one loses the array.
func TestFlushNotesMemberFailures(t *testing.T) {
	r := newRig(t, 5)
	a := r.arr
	data := pattern(8, 5)
	if err := a.Put(context.Background(), 0, data, diskservice.PutOptions{}); err != nil {
		t.Fatal(err)
	}
	r.disks[2].Fail()
	if err := a.Flush(); err != nil {
		t.Fatalf("Flush with one member down = %v, want nil", err)
	}
	if a.FailedDisk() != 2 {
		t.Fatalf("failed disk after Flush = %d, want 2", a.FailedDisk())
	}
	a.InvalidateCache()
	if got := mustGet(t, a, 0, 8); !bytes.Equal(got, data) {
		t.Fatal("degraded read after Flush: mismatch")
	}

	r = newRig(t, 5)
	a = r.arr
	if err := a.Put(context.Background(), 0, data, diskservice.PutOptions{}); err != nil {
		t.Fatal(err)
	}
	r.disks[1].Fail()
	r.disks[3].Fail()
	if err := a.Flush(); !errors.Is(err, ErrDoubleFailure) {
		t.Fatalf("Flush with two members down = %v, want ErrDoubleFailure", err)
	}
	if f := a.FailedDisk(); f != 1 && f != 3 {
		t.Fatalf("failed disk after Flush = %d, want 1 or 3", f)
	}
	if _, err := a.getAlloc(context.Background(), 0, 8, diskservice.GetOptions{}); !errors.Is(err, ErrDoubleFailure) {
		t.Fatalf("Get after a double failure under Flush = %v, want ErrDoubleFailure", err)
	}
}

func TestSecondFailureIsFatal(t *testing.T) {
	r := newRig(t, 5)
	a := r.arr
	data := pattern(8, 5)
	if err := a.Put(context.Background(), 0, data, diskservice.PutOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := a.MarkFailed(1); err != nil {
		t.Fatal(err)
	}
	if err := a.MarkFailed(3); !errors.Is(err, ErrTooManyFailures) {
		t.Fatalf("second MarkFailed: %v", err)
	}
	r.disks[1].Fail()
	r.disks[3].Fail()
	a.InvalidateCache()
	if _, err := a.getAlloc(context.Background(), 0, 8, diskservice.GetOptions{}); err == nil {
		t.Fatal("read with two disks down unexpectedly succeeded")
	}
}

func TestStablePassThrough(t *testing.T) {
	r := newRig(t, 5)
	a := r.arr
	data := pattern(6, 9)
	opts := diskservice.PutOptions{Stability: diskservice.StableOnly, WaitStable: true}
	if err := a.Put(context.Background(), 4, data, opts); err != nil {
		t.Fatal(err)
	}
	got, err := a.getAlloc(context.Background(), 4, 6, diskservice.GetOptions{FromStable: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("stable round trip mismatch")
	}
	// Stable writes must not disturb main storage's parity invariant.
	checkClean(t, a)

	// The stable copy survives a main-device failure.
	r.disks[2].Fail()
	a.InvalidateCache()
	if err := a.MarkFailed(2); err != nil {
		t.Fatal(err)
	}
	got, err = a.getAlloc(context.Background(), 4, 6, diskservice.GetOptions{FromStable: true})
	if err != nil {
		t.Fatalf("stable read with main device down: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("stable read after failure mismatch")
	}
}

// TestOnlineRebuild runs readers and writers concurrently with the rebuild
// and verifies the final image and parity invariant. Run with -race.
func TestOnlineRebuild(t *testing.T) {
	r := newRig(t, 5)
	a := r.arr
	size := a.Capacity()
	img := pattern(size, 42)
	if err := a.Put(context.Background(), 0, img, diskservice.PutOptions{}); err != nil {
		t.Fatal(err)
	}
	r.disks[2].Fail()
	a.InvalidateCache()
	if err := a.MarkFailed(2); err != nil {
		t.Fatal(err)
	}
	repl := r.addDisk(t, device.Geometry{FragmentsPerTrack: 8, Tracks: 32}, 99)
	if err := a.ReplaceDisk(2, repl); err != nil {
		t.Fatal(err)
	}

	// Writers overwrite disjoint regions while the rebuild walks the array;
	// readers continuously verify a quiescent prefix written before the
	// failure.
	var mu sync.Mutex // serializes updates to the reference image
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			region := size / 4
			for i := 0; i < 6; i++ {
				addr := w*region + (i*7)%(region-9)
				chunk := pattern(9, int64(1000+w*100+i))
				if err := a.Put(context.Background(), addr, chunk, diskservice.PutOptions{}); err != nil {
					errc <- err
					return
				}
				mu.Lock()
				copy(img[addr*FragmentSize:], chunk)
				mu.Unlock()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			done, err := a.RebuildStep(4)
			if err != nil {
				errc <- err
				return
			}
			if done {
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if a.Degraded() {
		t.Fatal("array still degraded after online rebuild")
	}
	a.InvalidateCache()
	if got := mustGet(t, a, 0, size); !bytes.Equal(got, img) {
		t.Fatal("image mismatch after online rebuild")
	}
	checkClean(t, a)
	if r.met.Get(metrics.ParityRebuildStripes) != int64(a.Stripes()) {
		t.Fatalf("rebuilt %d stripes, want %d",
			r.met.Get(metrics.ParityRebuildStripes), a.Stripes())
	}
}

func TestAllocationSurface(t *testing.T) {
	r := newRig(t, 5)
	a := r.arr
	addr, err := a.AllocateFragments(10)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(addr, 10); err != nil {
		t.Fatal(err)
	}
	b, err := a.AllocateBlocks(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(b, 2*FragmentsPerBlock); err != nil {
		t.Fatal(err)
	}
	if err := a.AllocateAt(5, 3); err != nil {
		t.Fatal(err)
	}
	if a.FreeFragments() != a.Capacity()-3 {
		t.Fatalf("free %d, want %d", a.FreeFragments(), a.Capacity()-3)
	}
	if err := a.ResetBitmap(); err != nil {
		t.Fatal(err)
	}
	if a.FreeFragments() != a.Capacity() {
		t.Fatal("ResetBitmap did not free everything")
	}
}

// TestSecondFailureDuringRebuild injects a delay into the rebuild's stripe
// writes, then fails a second distinct disk while the rebuild is in flight:
// the rebuild must stop with ErrDoubleFailure, concurrent readers must get
// clean errors (never stale or reconstructed-from-garbage data), and every
// later operation must refuse with the same distinct error. Run with -race.
func TestSecondFailureDuringRebuild(t *testing.T) {
	inj := fault.NewInjector(31)
	r := newRig(t, 3, func(c *Config) { c.Fault = inj })
	a := r.arr
	size := a.Capacity()
	img := pattern(size, 77)
	if err := a.Put(context.Background(), 0, img, diskservice.PutOptions{}); err != nil {
		t.Fatal(err)
	}
	r.disks[1].Fail()
	a.InvalidateCache()
	if err := a.MarkFailed(1); err != nil {
		t.Fatal(err)
	}
	repl := r.addDisk(t, device.Geometry{FragmentsPerTrack: 8, Tracks: 32}, 99)
	if err := a.ReplaceDisk(1, repl); err != nil {
		t.Fatal(err)
	}

	// Slow every stripe resync so the second failure lands mid-rebuild.
	inj.Arm(PtRebuildBeforePut, fault.Action{Kind: fault.KindDelay, Delay: 2 * time.Millisecond, Times: -1})
	rebuildErr := make(chan error, 1)
	go func() { rebuildErr <- a.Rebuild() }()
	polltest.Until(t, "the rebuild to start", func() bool {
		done, total := a.rebuildProgress()
		if done >= total {
			t.Fatal("rebuild finished before the second failure could land")
		}
		return done > 0
	})

	// Concurrent readers race the failure; each read must either succeed
	// with correct bytes or fail cleanly.
	var wg sync.WaitGroup
	readErrs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				got, err := a.getAlloc(context.Background(), 0, 4, diskservice.GetOptions{})
				if err != nil {
					if !errors.Is(err, ErrDoubleFailure) && !errors.Is(err, ErrTooManyFailures) {
						readErrs <- err
					}
					return
				}
				if !bytes.Equal(got, img[:4*FragmentSize]) {
					readErrs <- errors.New("read returned wrong bytes during double failure")
					return
				}
			}
		}()
	}

	if err := a.MarkFailed(2); !errors.Is(err, ErrDoubleFailure) {
		t.Fatalf("second MarkFailed = %v, want ErrDoubleFailure", err)
	}
	err := <-rebuildErr
	if !errors.Is(err, ErrDoubleFailure) {
		t.Fatalf("in-flight Rebuild = %v, want ErrDoubleFailure", err)
	}
	// The distinct error still matches the generic two-failure sentinel, so
	// existing callers keep recognizing it.
	if !errors.Is(err, ErrTooManyFailures) {
		t.Fatalf("ErrDoubleFailure must wrap ErrTooManyFailures; got %v", err)
	}
	wg.Wait()
	close(readErrs)
	for err := range readErrs {
		t.Fatal(err)
	}

	// The array is lost: reads, writes, parity checks, and rebuild restarts
	// all refuse with the double-failure error instead of serving garbage.
	if _, err := a.getAlloc(context.Background(), 0, 1, diskservice.GetOptions{}); !errors.Is(err, ErrDoubleFailure) {
		t.Fatalf("Get after double failure = %v", err)
	}
	if err := a.Put(context.Background(), 0, pattern(1, 1), diskservice.PutOptions{}); !errors.Is(err, ErrDoubleFailure) {
		t.Fatalf("Put after double failure = %v", err)
	}
	if _, err := a.CheckParity(); !errors.Is(err, ErrDoubleFailure) {
		t.Fatalf("CheckParity after double failure = %v", err)
	}
	if _, err := a.RebuildStep(1); !errors.Is(err, ErrDoubleFailure) {
		t.Fatalf("RebuildStep after double failure = %v", err)
	}
	if err := a.ReplaceDisk(1, repl); !errors.Is(err, ErrDoubleFailure) {
		t.Fatalf("ReplaceDisk after double failure = %v", err)
	}
}

// TestConcurrentSmallWritesSharingTracks: single-fragment writes to different
// stripes run concurrently (each under its own stripe lock) while their data
// and parity units share tracks on the member disks. Every read-modify-write
// reads its old data and old parity through the members' track caches, so a
// cached track that drops one of two racing updates corrupts the next parity
// computed from it. The invariant must hold after every round, and a
// degraded read — served through the same caches — must return the data.
func TestConcurrentSmallWritesSharingTracks(t *testing.T) {
	r := newRig(t, 5)
	a := r.arr
	const (
		frags   = 64 // 16 stripes: two 8-fragment tracks on each member
		writers = 8
	)
	want := pattern(frags, 1)
	if err := a.Put(context.Background(), 0, want, diskservice.PutOptions{}); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for f := w; f < frags; f += writers {
					chunk := want[f*FragmentSize : (f+1)*FragmentSize]
					copy(chunk, pattern(1, int64(round*frags+f)))
					if err := a.Put(context.Background(), f, chunk, diskservice.PutOptions{}); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		checkClean(t, a)
	}
	r.disks[2].Fail()
	if err := a.MarkFailed(2); err != nil {
		t.Fatal(err)
	}
	if got := mustGet(t, a, 0, frags); !bytes.Equal(got, want) {
		t.Fatal("degraded read after concurrent small writes: mismatch")
	}
}

// getIntoCanaried reads [addr, addr+n) with GetInto into the middle of a
// larger buffer and checks the read stayed inside its span.
func getIntoCanaried(t *testing.T, a *Array, addr, n int) []byte {
	t.Helper()
	const pad = FragmentSize
	buf := bytes.Repeat([]byte{0xC5}, n*FragmentSize+2*pad)
	if err := a.GetInto(context.Background(), addr, n, buf[pad:], diskservice.GetOptions{}); err != nil {
		t.Fatalf("GetInto(%d,%d): %v", addr, n, err)
	}
	canary := bytes.Repeat([]byte{0xC5}, pad)
	if !bytes.Equal(buf[:pad], canary) || !bytes.Equal(buf[pad+n*FragmentSize:], canary) {
		t.Fatalf("GetInto(%d,%d) wrote outside its span", addr, n)
	}
	return buf[pad : pad+n*FragmentSize]
}

// TestGetIntoMatchesGet: the member reads land at their offsets in the
// caller's buffer — healthy, degraded, and mid-rebuild with stripes on both
// sides of the watermark — and read what Get reads.
func TestGetIntoMatchesGet(t *testing.T) {
	r := newRig(t, 5)
	a := r.arr
	size := a.Capacity()
	img := pattern(size, 7)
	if err := a.Put(context.Background(), 0, img, diskservice.PutOptions{}); err != nil {
		t.Fatal(err)
	}
	check := func(state string) {
		t.Helper()
		a.InvalidateCache()
		for _, span := range [][2]int{{0, size}, {3, 40}, {size - 9, 9}, {17, 1}} {
			into := getIntoCanaried(t, a, span[0], span[1])
			if got := mustGet(t, a, span[0], span[1]); !bytes.Equal(into, got) {
				t.Fatalf("%s: GetInto(%d,%d) differs from Get", state, span[0], span[1])
			}
			if !bytes.Equal(into, img[span[0]*FragmentSize:(span[0]+span[1])*FragmentSize]) {
				t.Fatalf("%s: GetInto(%d,%d) differs from what was written", state, span[0], span[1])
			}
		}
	}
	check("healthy")
	r.disks[1].Fail()
	if err := a.MarkFailed(1); err != nil {
		t.Fatal(err)
	}
	degraded := r.met.Get(metrics.ParityDegradedReads)
	check("degraded")
	if r.met.Get(metrics.ParityDegradedReads) == degraded {
		t.Fatal("no degraded read while a disk is down")
	}
	repl := r.addDisk(t, device.Geometry{FragmentsPerTrack: 8, Tracks: 32}, 99)
	if err := a.ReplaceDisk(1, repl); err != nil {
		t.Fatal(err)
	}
	if _, err := a.RebuildStep(a.Stripes() / 2); err != nil {
		t.Fatal(err)
	}
	if done, total := a.rebuildProgress(); done == 0 || done == total {
		t.Fatalf("rebuild at %d of %d stripes; the check wants it half way", done, total)
	}
	check("mid-rebuild")
}

// TestGetIntoRefusesBeforeReading: a span off the array or a buffer shorter
// than the span is refused before any member is read, with the allocating
// form's error for the span.
func TestGetIntoRefusesBeforeReading(t *testing.T) {
	r := newRig(t, 3)
	a := r.arr
	heads := func() (h []int) {
		for _, d := range r.disks {
			h = append(h, d.HeadTrack())
		}
		return h
	}
	if _, err := a.getAlloc(context.Background(), a.Capacity()-40, 1, diskservice.GetOptions{}); err != nil {
		t.Fatal(err) // move the heads off track 0
	}
	before := heads()
	err := a.GetInto(context.Background(), a.Capacity()-1, 2, make([]byte, 2*FragmentSize), diskservice.GetOptions{})
	if _, aerr := a.getAlloc(context.Background(), a.Capacity()-1, 2, diskservice.GetOptions{}); !errors.Is(err, device.ErrOutOfRange) || aerr == nil || aerr.Error() != err.Error() {
		t.Fatalf("GetInto off the array = %v, Get = %v; want ErrOutOfRange from both", err, aerr)
	}
	if err := a.GetInto(context.Background(), 0, 2, make([]byte, 2*FragmentSize-1), diskservice.GetOptions{}); !errors.Is(err, device.ErrShortBuffer) {
		t.Fatalf("GetInto into a short buffer = %v, want ErrShortBuffer", err)
	}
	if after := heads(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("a refused read moved the heads: %v -> %v", before, after)
	}
}
