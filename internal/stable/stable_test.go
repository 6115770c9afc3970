package stable

import (
	"bytes"
	"context"
	"errors"
	"testing"

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
