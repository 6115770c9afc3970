package stable

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/metrics"
)

func newPair(t *testing.T) (*device.Disk, *device.Disk) {
	t.Helper()
	g := device.Geometry{FragmentsPerTrack: 8, Tracks: 8}
	p, err := device.New(g)
	if err != nil {
		t.Fatal(err)
	}
	m, err := device.New(g)
	if err != nil {
		t.Fatal(err)
	}
	return p, m
}

func newStore(t *testing.T) (*Store, *device.Disk, *device.Disk) {
	t.Helper()
	p, m := newPair(t)
	st, err := NewStore(p, m)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st, p, m
}

func frag(seed byte) []byte {
	b := make([]byte, device.FragmentSize)
	for i := range b {
		b[i] = seed
	}
	return b
}

func TestNewStoreValidation(t *testing.T) {
	p, _ := newPair(t)
	if _, err := NewStore(nil, p); err == nil {
		t.Fatal("NewStore(nil, p) succeeded")
	}
	if _, err := NewStore(p, nil); err == nil {
		t.Fatal("NewStore(p, nil) succeeded")
	}
	other, err := device.New(device.Geometry{FragmentsPerTrack: 4, Tracks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewStore(p, other); err == nil {
		t.Fatal("NewStore with mismatched geometry succeeded")
	}
}

func TestWriteHitsBothMirrors(t *testing.T) {
	st, p, m := newStore(t)
	want := frag(7)
	if err := st.Write(3, want); err != nil {
		t.Fatalf("Write: %v", err)
	}
	for name, d := range map[string]*device.Disk{"primary": p, "mirror": m} {
		got, err := d.ReadFragments(context.Background(), 3, 1)
		if err != nil {
			t.Fatalf("%s read: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s copy differs", name)
		}
	}
}

func TestReadFallsBackToMirrorAndRepairs(t *testing.T) {
	st, p, _ := newStore(t)
	want := frag(9)
	if err := st.Write(2, want); err != nil {
		t.Fatal(err)
	}
	if err := p.CorruptFragment(2); err != nil {
		t.Fatal(err)
	}
	got, err := st.Read(2, 1)
	if err != nil {
		t.Fatalf("Read with corrupted primary: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("Read returned wrong data from mirror")
	}
	// The primary must have been repaired in passing.
	got, err = p.ReadFragments(context.Background(), 2, 1)
	if err != nil {
		t.Fatalf("primary still unreadable after repair: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("primary repair wrote wrong data")
	}
}

func TestReadBothCopiesLost(t *testing.T) {
	st, p, m := newStore(t)
	if err := st.Write(1, frag(1)); err != nil {
		t.Fatal(err)
	}
	if err := p.CorruptFragment(1); err != nil {
		t.Fatal(err)
	}
	if err := m.CorruptFragment(1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Read(1, 1); err == nil {
		t.Fatal("Read with both copies lost succeeded")
	}
}

func TestReadFallsBackWhenPrimaryFailed(t *testing.T) {
	st, p, _ := newStore(t)
	want := frag(4)
	if err := st.Write(5, want); err != nil {
		t.Fatal(err)
	}
	p.Fail()
	got, err := st.Read(5, 1)
	if err != nil {
		t.Fatalf("Read with failed primary: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("Read returned wrong data")
	}
}

func TestRecoverHealsDivergence(t *testing.T) {
	st, p, m := newStore(t)
	if err := st.Write(0, frag(1)); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash between the careful writes: primary has new data,
	// mirror has old.
	if err := p.WriteFragments(context.Background(), 0, frag(2)); err != nil {
		t.Fatal(err)
	}
	rep, err := st.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rep.DivergenceHealed != 1 {
		t.Fatalf("DivergenceHealed = %d, want 1", rep.DivergenceHealed)
	}
	got, err := m.ReadFragments(context.Background(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, frag(2)) {
		t.Fatal("recover did not propagate primary (newer) copy to mirror")
	}
}

func TestRecoverRestoresCorruptedCopies(t *testing.T) {
	st, p, m := newStore(t)
	if err := st.Write(1, frag(3)); err != nil {
		t.Fatal(err)
	}
	if err := st.Write(2, frag(4)); err != nil {
		t.Fatal(err)
	}
	if err := p.CorruptFragment(1); err != nil {
		t.Fatal(err)
	}
	if err := m.CorruptFragment(2); err != nil {
		t.Fatal(err)
	}
	rep, err := st.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rep.PrimaryRepaired != 1 || rep.MirrorRepaired != 1 {
		t.Fatalf("repaired primary=%d mirror=%d, want 1 and 1", rep.PrimaryRepaired, rep.MirrorRepaired)
	}
	for _, d := range []*device.Disk{p, m} {
		if got, err := d.ReadFragments(context.Background(), 1, 1); err != nil || !bytes.Equal(got, frag(3)) {
			t.Fatalf("fragment 1 not restored: %v", err)
		}
		if got, err := d.ReadFragments(context.Background(), 2, 1); err != nil || !bytes.Equal(got, frag(4)) {
			t.Fatalf("fragment 2 not restored: %v", err)
		}
	}
}

func TestRecoverReportsCatastrophe(t *testing.T) {
	st, p, m := newStore(t)
	if err := p.CorruptFragment(0); err != nil {
		t.Fatal(err)
	}
	if err := m.CorruptFragment(0); err != nil {
		t.Fatal(err)
	}
	rep, err := st.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rep.UnrecoverableLost != 1 {
		t.Fatalf("UnrecoverableLost = %d, want 1", rep.UnrecoverableLost)
	}
}

func TestWriteDeferredAndFlush(t *testing.T) {
	st, p, m := newStore(t)
	want := frag(8)
	if err := st.WriteDeferred(6, want); err != nil {
		t.Fatalf("WriteDeferred: %v", err)
	}
	if err := st.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for name, d := range map[string]*device.Disk{"primary": p, "mirror": m} {
		got, err := d.ReadFragments(context.Background(), 6, 1)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s missing deferred write: %v", name, err)
		}
	}
}

func TestWriteDeferredCopiesData(t *testing.T) {
	st, p, _ := newStore(t)
	data := frag(5)
	if err := st.WriteDeferred(0, data); err != nil {
		t.Fatal(err)
	}
	data[0] = 0xEE // mutate after enqueue; the store must have copied
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := p.ReadFragments(context.Background(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 5 {
		t.Fatal("deferred write observed caller's later mutation")
	}
}

func TestDeferredErrorSurfacesOnFlush(t *testing.T) {
	st, p, _ := newStore(t)
	p.Fail()
	if err := st.WriteDeferred(0, frag(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err == nil {
		t.Fatal("Flush returned nil after failed deferred write")
	}
}

func TestCloseIdempotentAndRejectsUse(t *testing.T) {
	st, _, _ := newStore(t)
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := st.Write(0, frag(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Write after Close = %v, want ErrClosed", err)
	}
	if err := st.WriteDeferred(0, frag(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("WriteDeferred after Close = %v, want ErrClosed", err)
	}
}

func TestAllocatorDisjointRegions(t *testing.T) {
	st, _, _ := newStore(t)
	a, err := st.Allocate(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.Allocate(4)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("allocator returned overlapping regions")
	}
	if err := st.Free(a, 4); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if st.FreeCount() != st.Capacity()-4 {
		t.Fatalf("FreeCount = %d, want %d", st.FreeCount(), st.Capacity()-4)
	}
}

func TestStableWriteCounter(t *testing.T) {
	p, m := newPair(t)
	met := metrics.NewSet()
	st, err := NewStore(p, m, WithMetrics(met))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	if err := st.Write(0, frag(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteDeferred(1, frag(2)); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := met.Get(metrics.StableWrites); got != 2 {
		t.Fatalf("stable writes = %d, want 2", got)
	}
}

func TestBarrierSurfacesAndConsumesDeferredFault(t *testing.T) {
	p, m := newPair(t)
	inj := fault.NewInjector(11)
	st, err := NewStore(p, m, WithFault(inj))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	start, err := st.Allocate(1)
	if err != nil {
		t.Fatal(err)
	}
	inj.Arm(PtDeferredMirror, fault.Action{Kind: fault.KindError, Err: device.ErrFailed})
	if err := st.WriteDeferred(start, frag(1)); err != nil {
		t.Fatal(err)
	}
	err = st.Barrier()
	if err == nil {
		t.Fatal("Barrier swallowed the failed deferred mirror write")
	}
	if !errors.Is(err, fault.ErrInjected) || !errors.Is(err, device.ErrFailed) {
		t.Fatalf("Barrier error %v does not carry the injected cause", err)
	}
	// Barrier consumes the error: after the fault clears, a retry goes clean.
	if err := st.Barrier(); err != nil {
		t.Fatalf("second Barrier = %v, want nil (error consumed)", err)
	}
	if err := st.WriteDeferred(start, frag(2)); err != nil {
		t.Fatal(err)
	}
	if err := st.Barrier(); err != nil {
		t.Fatalf("retried deferred write: %v", err)
	}
	for _, d := range []*device.Disk{p, m} {
		got, err := d.ReadFragments(context.Background(), start, 1)
		if err != nil || !bytes.Equal(got, frag(2)) {
			t.Fatalf("mirror missing retried data: %v", err)
		}
	}
}

func TestCloseSurfacesDeferredFault(t *testing.T) {
	p, m := newPair(t)
	inj := fault.NewInjector(12)
	st, err := NewStore(p, m, WithFault(inj))
	if err != nil {
		t.Fatal(err)
	}
	start, err := st.Allocate(1)
	if err != nil {
		t.Fatal(err)
	}
	inj.Arm(PtDeferredPrimary, fault.Action{Kind: fault.KindError, Err: device.ErrFailed})
	if err := st.WriteDeferred(start, frag(3)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err == nil || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Close = %v, want the deferred-write fault surfaced", err)
	}
}

func TestSyncWriteTornPrimaryFailsWrite(t *testing.T) {
	p, m := newPair(t)
	inj := fault.NewInjector(13)
	st, err := NewStore(p, m, WithFault(inj))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	start, err := st.Allocate(2)
	if err != nil {
		t.Fatal(err)
	}
	data := append(frag(7), frag(8)...)
	inj.Arm(PtWritePrimary, fault.Action{Kind: fault.KindTorn, Frags: 1})
	err = st.Write(start, data)
	if err == nil || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("torn write = %v, want injected failure", err)
	}
	// The torn prefix reached the primary; the mirror was never touched —
	// exactly the divergence Recover's primary-wins rule heals.
	got, err := p.ReadFragments(context.Background(), start, 1)
	if err != nil || !bytes.Equal(got, frag(7)) {
		t.Fatalf("primary missing torn prefix: %v", err)
	}
	if got, _ := m.ReadFragments(context.Background(), start, 1); bytes.Equal(got, frag(7)) {
		t.Fatal("mirror written despite torn primary")
	}
	rep, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.DivergenceHealed == 0 && rep.MirrorRepaired == 0 {
		t.Fatalf("recover healed nothing: %+v", rep)
	}
}

// A deferred write runs on its caller, so a crash armed at a deferred point
// dies on the caller, under fault.Run: here the mirror write is torn after
// one fragment, and Recover must heal the divergence with the primary's copy.
func TestDeferredMirrorCrashDiesOnCaller(t *testing.T) {
	p, m := newPair(t)
	inj := fault.NewInjector(14)
	st, err := NewStore(p, m, WithFault(inj))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	start, err := st.Allocate(2)
	if err != nil {
		t.Fatal(err)
	}
	data := append(frag(7), frag(8)...)
	inj.Arm(PtDeferredMirror, fault.Action{Kind: fault.KindTorn, Frags: 1, Crash: true})
	crashed, err := fault.Run(func() error { return st.WriteDeferred(start, data) })
	if crashed == nil || crashed.Point != PtDeferredMirror {
		t.Fatalf("WriteDeferred = crash %v, err %v; want a crash at %s", crashed, err, PtDeferredMirror)
	}
	rep, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.DivergenceHealed != 1 || rep.PrimaryRepaired != 0 || rep.MirrorRepaired != 0 {
		t.Fatalf("recover = %+v, want one divergence healed", rep)
	}
	for _, d := range []*device.Disk{p, m} {
		got, err := d.ReadFragments(context.Background(), start, 2)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("copy after recover differs from the primary's: %v", err)
		}
	}
	rep, err = st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.DivergenceHealed != 0 || rep.PrimaryRepaired != 0 || rep.MirrorRepaired != 0 || rep.UnrecoverableLost != 0 {
		t.Fatalf("second recover = %+v, want no repairs", rep)
	}
}

// Close returns only after every write that passed its closed check has
// landed, for both flavours: writers keep writing until they see ErrClosed,
// and a copy of the mirrors taken as Close returns holds each fragment's last
// write that did not report it. A delay at the start of each synchronous
// write holds the writes open past their closed check.
func TestCloseWaitsForWritesUnderWay(t *testing.T) {
	p, m := newPair(t)
	inj := fault.NewInjector(15)
	inj.Arm(PtWriteBeforePrimary, fault.Action{Kind: fault.KindDelay, Delay: time.Millisecond, Times: -1})
	st, err := NewStore(p, m, WithFault(inj))
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	last := make([]byte, st.Capacity()) // each fragment's last seed written; one writer per fragment
	var started, done sync.WaitGroup
	for w := 0; w < writers; w++ {
		started.Add(1)
		done.Add(1)
		go func(w int) {
			defer done.Done()
			for round := 1; ; round++ {
				for f := w; f < len(last); f += writers {
					write := st.Write
					if f%2 == 1 {
						write = st.WriteDeferred
					}
					if err := write(f, frag(byte(round))); err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("write %d: %v", f, err)
						}
						if round == 1 {
							started.Done()
						}
						return
					}
					last[f] = byte(round)
				}
				if round == 1 {
					started.Done()
				}
			}
		}(w)
	}
	started.Wait()
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var copies [2][]byte
	for i, d := range []*device.Disk{p, m} {
		if copies[i], err = d.ReadFragments(context.Background(), 0, len(last)); err != nil {
			t.Fatal(err)
		}
	}
	done.Wait()
	for f, seed := range last {
		for c, img := range copies {
			if !bytes.Equal(img[f*device.FragmentSize:(f+1)*device.FragmentSize], frag(seed)) {
				t.Fatalf("fragment %d: copy %d lacks its last write as Close returns", f, c)
			}
		}
	}
}
