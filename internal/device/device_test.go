package device

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/simclock"
)

func newTestDisk(t *testing.T) (*Disk, *metrics.Set, *simclock.Virtual) {
	t.Helper()
	met := metrics.NewSet()
	clk := simclock.New()
	d, err := New(Geometry{FragmentsPerTrack: 8, Tracks: 16}, WithMetrics(met), WithClock(clk))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d, met, clk
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	d, _, _ := newTestDisk(t)
	want := pattern(3*FragmentSize, 7)
	if err := d.WriteFragments(context.Background(), 5, want); err != nil {
		t.Fatalf("WriteFragments: %v", err)
	}
	got, err := d.ReadFragments(context.Background(), 5, 3)
	if err != nil {
		t.Fatalf("ReadFragments: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read data differs from written data")
	}
}

func TestReadReturnsCopy(t *testing.T) {
	d, _, _ := newTestDisk(t)
	if err := d.WriteFragments(context.Background(), 0, pattern(FragmentSize, 1)); err != nil {
		t.Fatalf("WriteFragments: %v", err)
	}
	got, err := d.ReadFragments(context.Background(), 0, 1)
	if err != nil {
		t.Fatalf("ReadFragments: %v", err)
	}
	got[0] = 0xFF
	again, err := d.ReadFragments(context.Background(), 0, 1)
	if err != nil {
		t.Fatalf("ReadFragments: %v", err)
	}
	if again[0] == 0xFF {
		t.Fatal("mutating returned buffer corrupted the disk")
	}
}

func TestOutOfRange(t *testing.T) {
	d, _, _ := newTestDisk(t)
	cap := d.Geometry().Capacity()
	cases := []struct{ start, n int }{
		{-1, 1}, {0, 0}, {cap, 1}, {cap - 1, 2}, {0, cap + 1},
	}
	for _, c := range cases {
		if _, err := d.ReadFragments(context.Background(), c.start, c.n); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("ReadFragments(%d,%d) = %v, want ErrOutOfRange", c.start, c.n, err)
		}
	}
	if err := d.WriteFragments(context.Background(), cap-1, make([]byte, 2*FragmentSize)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("WriteFragments over end = %v, want ErrOutOfRange", err)
	}
}

func TestShortWrite(t *testing.T) {
	d, _, _ := newTestDisk(t)
	if err := d.WriteFragments(context.Background(), 0, make([]byte, 100)); !errors.Is(err, ErrShortWrite) {
		t.Fatalf("partial-fragment write = %v, want ErrShortWrite", err)
	}
	if err := d.WriteFragments(context.Background(), 0, nil); !errors.Is(err, ErrShortWrite) {
		t.Fatalf("empty write = %v, want ErrShortWrite", err)
	}
}

func TestOneReferencePerCall(t *testing.T) {
	d, met, _ := newTestDisk(t)
	if _, err := d.ReadFragments(context.Background(), 0, 8); err != nil {
		t.Fatalf("ReadFragments: %v", err)
	}
	if err := d.WriteFragments(context.Background(), 8, make([]byte, 4*FragmentSize)); err != nil {
		t.Fatalf("WriteFragments: %v", err)
	}
	if got := met.Get(metrics.DiskReferences); got != 2 {
		t.Fatalf("disk references = %d, want 2 (one per call regardless of span)", got)
	}
	if got := met.Get(metrics.DiskBytesRead); got != 8*FragmentSize {
		t.Fatalf("bytes read = %d, want %d", got, 8*FragmentSize)
	}
	if got := met.Get(metrics.DiskBytesWrite); got != 4*FragmentSize {
		t.Fatalf("bytes written = %d, want %d", got, 4*FragmentSize)
	}
}

func TestSeekAccounting(t *testing.T) {
	d, met, _ := newTestDisk(t)
	// Head starts at track 0; a read on track 0 needs no seek.
	if _, err := d.ReadFragments(context.Background(), 0, 1); err != nil {
		t.Fatalf("ReadFragments: %v", err)
	}
	if got := met.Get(metrics.DiskSeeks); got != 0 {
		t.Fatalf("seeks after same-track read = %d, want 0", got)
	}
	// Track 10 requires a seek.
	if _, err := d.ReadFragments(context.Background(), 10*8, 1); err != nil {
		t.Fatalf("ReadFragments: %v", err)
	}
	if got := met.Get(metrics.DiskSeeks); got != 1 {
		t.Fatalf("seeks after cross-track read = %d, want 1", got)
	}
	if got := d.HeadTrack(); got != 10 {
		t.Fatalf("head track = %d, want 10", got)
	}
}

func TestTimingModel(t *testing.T) {
	met := metrics.NewSet()
	clk := simclock.New()
	m := Model{
		SeekBase:            1 * time.Millisecond,
		SeekPerTrack:        100 * time.Microsecond,
		RotationalLatency:   2 * time.Millisecond,
		TransferPerFragment: 10 * time.Microsecond,
	}
	d, err := New(Geometry{FragmentsPerTrack: 8, Tracks: 16}, WithMetrics(met), WithClock(clk), WithModel(m))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Same-track single-fragment read: rotation + 1 transfer, no seek.
	if _, err := d.ReadFragments(context.Background(), 0, 1); err != nil {
		t.Fatalf("ReadFragments: %v", err)
	}
	want := 2*time.Millisecond + 10*time.Microsecond
	if got := clk.Now(); got != want {
		t.Fatalf("clock after same-track read = %v, want %v", got, want)
	}
	// Seek 5 tracks, read 2 fragments.
	start := clk.Now()
	if _, err := d.ReadFragments(context.Background(), 5*8, 2); err != nil {
		t.Fatalf("ReadFragments: %v", err)
	}
	want = 1*time.Millisecond + 5*100*time.Microsecond + 2*time.Millisecond + 2*10*time.Microsecond
	if got := clk.Now() - start; got != want {
		t.Fatalf("cross-track read cost = %v, want %v", got, want)
	}
}

func TestMultiTrackTransferMovesHead(t *testing.T) {
	d, met, _ := newTestDisk(t)
	// Read 16 fragments spanning tracks 0 and 1.
	if _, err := d.ReadFragments(context.Background(), 0, 16); err != nil {
		t.Fatalf("ReadFragments: %v", err)
	}
	if got := d.HeadTrack(); got != 1 {
		t.Fatalf("head track after spanning read = %d, want 1", got)
	}
	if got := met.Get(metrics.DiskReferences); got != 1 {
		t.Fatalf("spanning read cost %d references, want 1", got)
	}
}

func TestReadTrack(t *testing.T) {
	d, met, _ := newTestDisk(t)
	want := pattern(FragmentSize, 42)
	if err := d.WriteFragments(context.Background(), 13, want); err != nil { // track 1 (frags 8..15)
		t.Fatalf("WriteFragments: %v", err)
	}
	met.Reset()
	data, start, err := d.ReadTrack(context.Background(), 13)
	if err != nil {
		t.Fatalf("ReadTrack: %v", err)
	}
	if start != 8 {
		t.Fatalf("track start = %d, want 8", start)
	}
	if len(data) != 8*FragmentSize {
		t.Fatalf("track data = %d bytes, want %d", len(data), 8*FragmentSize)
	}
	if !bytes.Equal(data[(13-8)*FragmentSize:(13-8+1)*FragmentSize], want) {
		t.Fatal("track data does not contain the written fragment")
	}
	if got := met.Get(metrics.DiskReferences); got != 1 {
		t.Fatalf("ReadTrack cost %d references, want 1", got)
	}
}

func TestFailAndRepair(t *testing.T) {
	d, _, _ := newTestDisk(t)
	if err := d.WriteFragments(context.Background(), 0, pattern(FragmentSize, 9)); err != nil {
		t.Fatalf("WriteFragments: %v", err)
	}
	d.Fail()
	if !d.Failed() {
		t.Fatal("Failed() = false after Fail")
	}
	if _, err := d.ReadFragments(context.Background(), 0, 1); !errors.Is(err, ErrFailed) {
		t.Fatalf("read on failed disk = %v, want ErrFailed", err)
	}
	if err := d.WriteFragments(context.Background(), 0, pattern(FragmentSize, 1)); !errors.Is(err, ErrFailed) {
		t.Fatalf("write on failed disk = %v, want ErrFailed", err)
	}
	d.Repair()
	got, err := d.ReadFragments(context.Background(), 0, 1)
	if err != nil {
		t.Fatalf("read after repair: %v", err)
	}
	if !bytes.Equal(got, pattern(FragmentSize, 9)) {
		t.Fatal("platter contents lost across fail/repair")
	}
}

func TestMediaError(t *testing.T) {
	d, _, _ := newTestDisk(t)
	if err := d.CorruptFragment(3); err != nil {
		t.Fatalf("CorruptFragment: %v", err)
	}
	if _, err := d.ReadFragments(context.Background(), 3, 1); !errors.Is(err, ErrMediaError) {
		t.Fatalf("read of corrupted fragment = %v, want ErrMediaError", err)
	}
	// A spanning read hitting the bad fragment also fails.
	if _, err := d.ReadFragments(context.Background(), 2, 3); !errors.Is(err, ErrMediaError) {
		t.Fatalf("spanning read over corruption = %v, want ErrMediaError", err)
	}
	// Rewriting the fragment clears the error.
	if err := d.WriteFragments(context.Background(), 3, pattern(FragmentSize, 5)); err != nil {
		t.Fatalf("rewrite of corrupted fragment: %v", err)
	}
	if _, err := d.ReadFragments(context.Background(), 3, 1); err != nil {
		t.Fatalf("read after rewrite = %v, want success", err)
	}
}

func TestRepairFragment(t *testing.T) {
	d, _, _ := newTestDisk(t)
	if err := d.WriteFragments(context.Background(), 4, pattern(FragmentSize, 8)); err != nil {
		t.Fatalf("WriteFragments: %v", err)
	}
	if err := d.CorruptFragment(4); err != nil {
		t.Fatalf("CorruptFragment: %v", err)
	}
	if err := d.RepairFragment(4); err != nil {
		t.Fatalf("RepairFragment: %v", err)
	}
	got, err := d.ReadFragments(context.Background(), 4, 1)
	if err != nil {
		t.Fatalf("read after RepairFragment: %v", err)
	}
	if !bytes.Equal(got, pattern(FragmentSize, 8)) {
		t.Fatal("RepairFragment lost data")
	}
}

func TestInvalidGeometry(t *testing.T) {
	if _, err := New(Geometry{FragmentsPerTrack: 0, Tracks: 10}); err == nil {
		t.Fatal("New with zero fragments/track succeeded")
	}
	if _, err := New(Geometry{FragmentsPerTrack: 8, Tracks: 0}); err == nil {
		t.Fatal("New with zero tracks succeeded")
	}
}

func TestGeometryHelpers(t *testing.T) {
	g := Geometry{FragmentsPerTrack: 8, Tracks: 16}
	if got := g.Capacity(); got != 128 {
		t.Fatalf("Capacity = %d, want 128", got)
	}
	if got := g.Bytes(); got != 128*FragmentSize {
		t.Fatalf("Bytes = %d, want %d", got, 128*FragmentSize)
	}
	if got := g.Track(17); got != 2 {
		t.Fatalf("Track(17) = %d, want 2", got)
	}
	if got := g.TrackStart(2); got != 16 {
		t.Fatalf("TrackStart(2) = %d, want 16", got)
	}
}

func TestFragmentBlockConstants(t *testing.T) {
	if FragmentSize != 2048 {
		t.Fatalf("FragmentSize = %d, want 2048 (paper §4)", FragmentSize)
	}
	if BlockSize != 8192 {
		t.Fatalf("BlockSize = %d, want 8192 (paper §4)", BlockSize)
	}
	if FragmentsPerBlock != 4 {
		t.Fatalf("FragmentsPerBlock = %d, want 4 (paper §4)", FragmentsPerBlock)
	}
}

func TestInjectedReadWriteErrors(t *testing.T) {
	inj := fault.NewInjector(5)
	d, err := New(Geometry{FragmentsPerTrack: 8, Tracks: 16}, WithFault(inj))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	want := pattern(2*FragmentSize, 3)
	if err := d.WriteFragments(context.Background(), 0, want); err != nil {
		t.Fatalf("WriteFragments: %v", err)
	}

	// An injected media error fails one read and carries both sentinels, so
	// callers distinguish "injected" from a naturally bad fragment while the
	// mirror-fallback logic still recognizes it as a media error.
	inj.Arm(PtRead, fault.Action{Kind: fault.KindError, Err: ErrMediaError})
	if _, err := d.ReadFragments(context.Background(), 0, 2); !errors.Is(err, ErrMediaError) || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("injected read = %v, want ErrMediaError and ErrInjected", err)
	}
	got, err := d.ReadFragments(context.Background(), 0, 2)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read after injection = %v (equal=%v), want clean", err, bytes.Equal(got, want))
	}

	// Same for the write path: one failed write, no bytes changed, then clean.
	inj.Arm(PtWrite, fault.Action{Kind: fault.KindError, Err: ErrFailed})
	if err := d.WriteFragments(context.Background(), 0, pattern(2*FragmentSize, 9)); !errors.Is(err, ErrFailed) {
		t.Fatalf("injected write = %v, want ErrFailed", err)
	}
	got, err = d.ReadFragments(context.Background(), 0, 2)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatal("injected write error must not modify the media")
	}
	if err := d.WriteFragments(context.Background(), 0, pattern(2*FragmentSize, 9)); err != nil {
		t.Fatalf("write after injection = %v, want clean", err)
	}
}

// TestReadFragmentsIntoFailsBeforeCharging: every way a read can fail — a
// failed drive, an unreadable fragment, a span off the disk, a buffer shorter
// than the span — returns the allocating form's error and charges and counts
// nothing: no reference, seek, byte, virtual time or head movement.
func TestReadFragmentsIntoFailsBeforeCharging(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		name     string
		setup    func(d *Disk)
		start, n int
		dst      int // bytes of dst
		want     error
	}{
		{"failed", func(d *Disk) { d.Fail() }, 8, 2, 2 * FragmentSize, ErrFailed},
		{"bad fragment", func(d *Disk) { _ = d.CorruptFragment(9) }, 8, 2, 2 * FragmentSize, ErrMediaError},
		{"out of range", func(*Disk) {}, d0Capacity - 1, 2, 2 * FragmentSize, ErrOutOfRange},
		{"short dst", func(*Disk) {}, 8, 2, 2*FragmentSize - 1, ErrShortBuffer},
	} {
		t.Run(c.name, func(t *testing.T) {
			d, met, clk := newTestDisk(t)
			if _, err := d.ReadFragments(ctx, 100, 1); err != nil { // the head leaves track 0
				t.Fatal(err)
			}
			c.setup(d)
			before, now, head := met.Snapshot(), clk.Now(), d.HeadTrack()
			dst := make([]byte, c.dst)
			err := d.ReadFragmentsInto(ctx, c.start, c.n, dst)
			if !errors.Is(err, c.want) {
				t.Fatalf("ReadFragmentsInto = %v, want %v", err, c.want)
			}
			if c.want != ErrShortBuffer {
				if _, aerr := d.ReadFragments(ctx, c.start, c.n); aerr == nil || aerr.Error() != err.Error() {
					t.Fatalf("ReadFragmentsInto = %v, ReadFragments = %v", err, aerr)
				}
			}
			if diff := met.Diff(before); len(diff) != 0 || clk.Now() != now || d.HeadTrack() != head {
				t.Fatalf("a failed read charged %v, %v of virtual time, head %d -> %d", diff, clk.Now()-now, head, d.HeadTrack())
			}
		})
	}
}

// d0Capacity is newTestDisk's capacity in fragments.
const d0Capacity = 8 * 16

// TestReadFragmentsIntoFillsOnlyTheSpan: the read lands in the first
// n*FragmentSize bytes of dst and leaves the rest of it alone.
func TestReadFragmentsIntoFillsOnlyTheSpan(t *testing.T) {
	d, met, _ := newTestDisk(t)
	want := pattern(2*FragmentSize, 3)
	if err := d.WriteFragments(context.Background(), 4, want); err != nil {
		t.Fatal(err)
	}
	met.Reset()
	dst := bytes.Repeat([]byte{0xAA}, 3*FragmentSize)
	if err := d.ReadFragmentsInto(context.Background(), 4, 2, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst[:2*FragmentSize], want) || !bytes.Equal(dst[2*FragmentSize:], bytes.Repeat([]byte{0xAA}, FragmentSize)) {
		t.Fatal("ReadFragmentsInto did not fill exactly the span")
	}
	if met.Get(metrics.DiskReferences) != 1 || met.Get(metrics.DiskBytesRead) != 2*FragmentSize {
		t.Fatalf("references %d, bytes %d; want 1 and %d", met.Get(metrics.DiskReferences), met.Get(metrics.DiskBytesRead), 2*FragmentSize)
	}
}
