// Package parity implements a rotating-parity striped layout (RAID-5 style)
// over K+1 disk services: K data units plus one XOR parity unit per stripe,
// with the parity unit rotating across the disks so no single spindle
// becomes the parity bottleneck.
//
// The paper's reliability mechanisms — stable storage (§2.1, §6.6) and
// whole-file replication (§2.1) — both pay at least 2× storage for
// single-failure tolerance. A parity stripe pays (K+1)/K: any one disk can
// fail and every byte remains readable by XOR-reconstructing the missing
// unit from the surviving K disks (a degraded read). A replacement disk is
// brought back in sync by an online rebuild that walks the stripes under
// per-stripe locks while reads and writes continue.
//
// An Array presents the K data units of every stripe as one flat fragment
// space and implements fileservice.Backend, so the file service runs on a
// parity array exactly as it runs on a single disk server — the layout is
// chosen in core.Config, alongside plain striping and replication.
//
// Write rules. Every stripe write takes one of two paths, chosen from the
// stripe's shape:
//
//   - Reconstruct-write: parity = new data XOR the data units the write
//     does not cover. Those units are read first; a full stripe reads none.
//     A lost disk's unit is not written (its stable echo still is), and a
//     lost parity unit needs no reads at all.
//   - Read-modify-write, for a partial stripe whose touched units and
//     parity are all alive: read the old data and old parity, then
//     newParity = oldParity XOR oldData XOR newData (the classic
//     small-write penalty).
//
// I/O order. Every call sends its member-disk I/O in a fixed order: one
// fan-out at a time, never one inside another. A read fans out its healthy
// units first and then reconstructs its degraded ones in stripe order; a
// write takes its stripes in order. Each member disk therefore sees one
// sequence of operations per call, so its seek and track-cache costs — and
// the virtual time they charge — repeat exactly.
//
// Parity is an invariant of main storage: parity-unit writes never go to
// stable storage, and reconstruction always reads main copies. Stable
// writes (shadow pages, FIT mirrors) pass through to the underlying disk
// services untouched — each disk's stable store survives its main device's
// failure independently, exactly as in the plain layout.
package parity

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/device"
	"repro/internal/diskservice"
	"repro/internal/fault"
	"repro/internal/freespace"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/simclock"
)

// Sizes re-exported for callers.
const (
	FragmentSize      = diskservice.FragmentSize
	FragmentsPerBlock = diskservice.FragmentsPerBlock
)

// stripeLockCount is the size of the stripe lock table; stripes hash onto it
// so concurrent writers to different stripes rarely contend while writers to
// the same stripe — whose read-modify-write parity updates must not
// interleave — always serialize.
const stripeLockCount = 64

// Errors.
var (
	ErrTooFewDisks = errors.New("parity: need at least 3 disks (2 data + 1 parity)")
	// ErrTooManyFailures reports a second concurrent disk failure — a parity
	// stripe tolerates exactly one.
	ErrTooManyFailures = errors.New("parity: more than one disk failed")
	// ErrDegraded reports an operation that requires a healthy array.
	ErrDegraded = errors.New("parity: array is degraded")
	// ErrNotFailed reports a replacement of a disk that is not failed.
	ErrNotFailed = errors.New("parity: disk is not failed")
	// ErrBadDisk reports a disk index out of range.
	ErrBadDisk = errors.New("parity: bad disk index")
)

// ErrDoubleFailure reports that a second distinct disk failed while the
// array was already degraded (or mid-rebuild). The stripes' data is no
// longer representable, so the failure is permanent: every subsequent
// operation fails with this error rather than serving reconstructions from
// a stale watermark. It wraps ErrTooManyFailures, so existing checks keep
// matching.
var ErrDoubleFailure = fmt.Errorf("%w: second distinct disk failed; array data lost", ErrTooManyFailures)

// Config configures an Array.
type Config struct {
	// Disks are the K+1 disk servers the array stripes over. Required,
	// at least three. The array owns the allocatable region of every disk.
	Disks []*diskservice.Server
	// Metrics receives the parity counters. Optional.
	Metrics *metrics.Set
	// Overlap, when set, brackets multi-disk fan-outs so overlap-aware
	// virtual time credits the parallelism (see simclock.Group). Optional.
	Overlap simclock.Batcher
	// Fault is the fault injector consulted at the rebuild crash points.
	// Optional; nil injects nothing.
	Fault *fault.Injector
	// Obs receives parity-layer latency observations. Optional.
	Obs *obs.Recorder
}

// Array is a rotating-parity striped layout over K+1 disk services,
// presenting the data units as one flat fragment space. It is safe for
// concurrent use and implements fileservice.Backend.
type Array struct {
	n, k    int // n = k+1 disks, k data units per stripe
	stripes int
	met     counters
	overlap simclock.Batcher
	fsmap   *freespace.Map // virtual data fragment space

	// mu guards the failure/rebuild state and the disk table (ReplaceDisk
	// swaps entries).
	mu         sync.Mutex
	disks      []*diskservice.Server
	base       []int // first region fragment on each disk
	failed     int   // index of the failed disk, -1 when healthy
	rebuilding bool  // a replacement is installed and being synced
	dead       bool  // a second distinct disk failed: data is lost

	// watermark is the rebuild progress: stripes below it are in sync on
	// the replacement disk. Only meaningful while rebuilding.
	watermark atomic.Int64

	rebuildMu   sync.Mutex // serializes rebuild steppers
	stripeLocks [stripeLockCount]sync.Mutex

	fault  *fault.Injector
	obsRec *obs.Recorder
}

// counters are the parity counters, resolved from Config.Metrics in New.
type counters struct {
	fullStripe, rmw, degradedWrites, degradedReads, rebuildStripes *metrics.Counter
}

func newCounters(set *metrics.Set) counters {
	return counters{
		fullStripe:     set.Counter(metrics.ParityFullStripeWrites),
		rmw:            set.Counter(metrics.ParityRMWWrites),
		degradedWrites: set.Counter(metrics.ParityDegradedWrites),
		degradedReads:  set.Counter(metrics.ParityDegradedReads),
		rebuildStripes: set.Counter(metrics.ParityRebuildStripes),
	}
}

// New builds an array over the given disk servers, claiming the striped
// region on each. It works over freshly formatted disks and over remounted
// ones (the region claim is re-asserted); the virtual allocation map starts
// empty and is rebuilt by the file service's mount-time FIT scan, the same
// trust model as a plain disk's bitmap.
func New(cfg Config) (*Array, error) {
	if len(cfg.Disks) < 3 {
		return nil, ErrTooFewDisks
	}
	a := &Array{
		n:       len(cfg.Disks),
		k:       len(cfg.Disks) - 1,
		met:     newCounters(cfg.Metrics),
		overlap: cfg.Overlap,
		fault:   cfg.Fault,
		obsRec:  cfg.Obs,
		disks:   append([]*diskservice.Server(nil), cfg.Disks...),
		base:    make([]int, len(cfg.Disks)),
		failed:  -1,
	}
	a.stripes = -1
	for i, d := range a.disks {
		a.base[i] = d.MetadataFragments()
		if s := d.Capacity() - a.base[i]; a.stripes < 0 || s < a.stripes {
			a.stripes = s
		}
	}
	if a.stripes <= 0 {
		return nil, errors.New("parity: disks too small for a stripe")
	}
	var err error
	a.fsmap, err = freespace.NewMap(a.stripes * a.k)
	if err != nil {
		return nil, err
	}
	if err := a.claimRegions(); err != nil {
		return nil, err
	}
	return a, nil
}

// claimRegions re-asserts the array's ownership of every disk's striped
// region in the underlying allocators.
func (a *Array) claimRegions() error {
	for i, d := range a.disks {
		if err := d.ResetBitmap(); err != nil {
			return err
		}
		if err := d.AllocateAt(a.base[i], a.stripes); err != nil {
			return fmt.Errorf("parity: claiming region on disk %d: %w", i, err)
		}
	}
	return nil
}

// Geometry accessors.

// Disks returns the number of member disks (K+1).
func (a *Array) Disks() int { return a.n }

// DataDisks returns K, the number of data units per stripe.
func (a *Array) DataDisks() int { return a.k }

// Stripes returns the number of stripes.
func (a *Array) Stripes() int { return a.stripes }

// Capacity returns the usable (data) size in fragments — K/(K+1) of the raw
// striped space.
func (a *Array) Capacity() int { return a.stripes * a.k }

// FreeFragments returns the number of free data fragments.
func (a *Array) FreeFragments() int { return a.fsmap.FreeCount() }

// MetadataFragments returns 0: the virtual space starts at the first data
// fragment; the member disks' own metadata regions sit below the stripes.
func (a *Array) MetadataFragments() int { return 0 }

// StorageOverhead returns the redundancy cost factor (K+1)/K — the raw
// fragments consumed per data fragment stored.
func (a *Array) StorageOverhead() float64 { return float64(a.n) / float64(a.k) }

// parityDisk returns the disk holding stripe s's parity unit. The parity
// position rotates by stripe so parity update traffic spreads over all
// spindles.
func (a *Array) parityDisk(s int) int { return s % a.n }

// dataDisk returns the disk holding data unit j of stripe s (the data units
// occupy the non-parity disks in index order).
func (a *Array) dataDisk(s, j int) int {
	if p := a.parityDisk(s); j >= p {
		return j + 1
	}
	return j
}

// physAddr returns the physical fragment address of stripe s's unit on disk
// d. A stripe unit is one fragment, so one stripe is K data fragments plus
// their parity fragment.
func (a *Array) physAddr(d, s int) int { return a.base[d] + s }

// Allocation — the file service's allocator surface, answered from the
// array's own free-space map over the virtual data space. Underlying disks
// never allocate: the array owns their whole region.

// AllocateFragments claims n contiguous data fragments.
func (a *Array) AllocateFragments(n int) (int, error) { return a.fsmap.Allocate(n) }

// AllocateBlocks claims n contiguous blocks (4n fragments).
func (a *Array) AllocateBlocks(n int) (int, error) { return a.fsmap.Allocate(n * FragmentsPerBlock) }

// AllocateBlocksNear is AllocateBlocks with a placement hint.
func (a *Array) AllocateBlocksNear(hint, n int) (int, error) {
	return a.fsmap.AllocateNear(hint, n*FragmentsPerBlock)
}

// AllocateAt claims the exact span [addr, addr+n).
func (a *Array) AllocateAt(addr, n int) error { return a.fsmap.AllocateAt(addr, n) }

// Free returns n fragments starting at addr to the free pool.
func (a *Array) Free(addr, n int) error { return a.fsmap.Free(addr, n) }

// ResetBitmap discards all virtual allocations and re-asserts the region
// claims on the member disks (the file service's mount-time rebuild then
// re-marks every structure reachable from the file map).
func (a *Array) ResetBitmap() error {
	fsmap, err := freespace.NewMap(a.Capacity())
	if err != nil {
		return err
	}
	a.fsmap = fsmap
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.claimRegions()
}

// InvalidateCache empties every member disk's read-ahead cache.
func (a *Array) InvalidateCache() {
	a.mu.Lock()
	disks := append([]*diskservice.Server(nil), a.disks...)
	a.mu.Unlock()
	for _, d := range disks {
		d.InvalidateCache()
	}
}

// Flush makes every member disk's buffered state durable, in parallel. A
// failed member is skipped — its durable state is unreachable until rebuild.
// A member failing here is noted like any other I/O failure: the first
// degrades the array and the survivors' flush stands; a second distinct one
// loses the array.
func (a *Array) Flush() error {
	disks, failedIdx, _, _ := a.snapshot()
	tasks := make([]func() error, 0, len(disks))
	for i, d := range disks {
		if i == failedIdx {
			continue
		}
		i, d := i, d
		tasks = append(tasks, func() error {
			err := d.Flush()
			if err != nil && errors.Is(err, device.ErrFailed) {
				if !a.noteFailure(i) {
					return fmt.Errorf("%w: disk %d: %v", ErrDoubleFailure, i, err)
				}
				return nil
			}
			return err
		})
	}
	return a.fanout(tasks)
}

// snapshot returns a consistent view of the disk table and failure state.
func (a *Array) snapshot() (disks []*diskservice.Server, failed int, rebuilding bool, watermark int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.disks, a.failed, a.rebuilding, int(a.watermark.Load())
}

// noteFailure records that disk d was observed failing. It returns true if
// the array can continue (d is the only failure); a second distinct failure
// marks the array dead and returns false.
func (a *Array) noteFailure(d int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch a.failed {
	case -1:
		a.failed = d
		a.rebuilding = false
		a.watermark.Store(0)
		return true
	case d:
		if a.rebuilding {
			// The replacement itself died: back to plain degraded mode.
			a.rebuilding = false
			a.watermark.Store(0)
		}
		return true
	default:
		a.dead = true
		return false
	}
}

// markDead records a second distinct failure observed without going through
// noteFailure (a survivor dying inside a reconstruction fan-out).
func (a *Array) markDead() {
	a.mu.Lock()
	a.dead = true
	a.mu.Unlock()
}

// alive returns ErrDoubleFailure once the array has seen two distinct
// failures; operations call it at entry so none serve data (or reconstruct
// from a stale watermark) after the array is lost.
func (a *Array) alive() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.dead {
		return ErrDoubleFailure
	}
	return nil
}

// MarkFailed declares disk i failed (e.g. fault injection noticed out of
// band). Subsequent reads of its units reconstruct by XOR; writes skip it.
// A second distinct failure — including one during an in-flight rebuild —
// returns ErrDoubleFailure and permanently fails the array.
func (a *Array) MarkFailed(i int) error {
	if i < 0 || i >= a.n {
		return ErrBadDisk
	}
	if !a.noteFailure(i) {
		return ErrDoubleFailure
	}
	return nil
}

// FailedDisk returns the index of the failed disk, or -1 when healthy.
func (a *Array) FailedDisk() int {
	_, f, _, _ := a.snapshot()
	return f
}

// Degraded reports whether the array is running with a lost or
// not-yet-rebuilt disk.
func (a *Array) Degraded() bool { return a.FailedDisk() >= 0 }

// stripeLock returns the lock covering stripe s.
func (a *Array) stripeLock(s int) *sync.Mutex { return &a.stripeLocks[s%stripeLockCount] }

// fanout runs the tasks concurrently inside an overlap batch
// (simclock.Fanout), so transfers dispatched to different disks occupy
// overlapping virtual intervals (and overlapping wall-clock windows when the
// drives simulate occupancy).
func (a *Array) fanout(tasks []func() error) error { return simclock.Fanout(a.overlap, tasks) }

// xorInto folds src into dst byte-wise (dst ^= src).
func xorInto(dst, src []byte) {
	_ = dst[len(src)-1]
	for i, b := range src {
		dst[i] ^= b
	}
}

// vspan is one fragment of a request, the planning granule of the
// scatter-gather paths: data unit j of a stripe.
type vspan struct {
	stripe int
	j      int // data unit index within the stripe
	bufOff int // byte offset in the request buffer
}

// planSpans splits the virtual range [addr, addr+n) into per-unit spans, in
// increasing virtual order: one span per fragment, the stripe unit.
func (a *Array) planSpans(addr, n int) []vspan {
	spans := make([]vspan, n)
	for i := range spans {
		va := addr + i
		spans[i] = vspan{stripe: va / a.k, j: va % a.k, bufOff: i * FragmentSize}
	}
	return spans
}

func (a *Array) checkSpan(addr, n int) error {
	if n <= 0 || addr < 0 || addr+n > a.Capacity() {
		return fmt.Errorf("%w: [%d,%d) of %d", device.ErrOutOfRange, addr, addr+n, a.Capacity())
	}
	return nil
}

// GetInto reads n contiguous data fragments starting at addr into the first
// n*FragmentSize bytes of dst, the caller's buffer. Healthy units are read by
// per-disk coalesced get-blocks fanned out across the spindles, each landing
// at its offset in dst; units on a failed disk are then reconstructed by XOR
// of the surviving K disks under the stripe lock (degraded read). FromStable
// passes through to the member disks' stable stores, which survive a
// main-device failure independently. The read is bracketed as a parity-layer
// operation under ctx's span; member-disk I/O is observed by the disk
// service's own instrumentation, outside that tree. A span off the array or
// a dst shorter than the span fails before any member is read.
func (a *Array) GetInto(ctx context.Context, addr, n int, dst []byte, opts diskservice.GetOptions) error {
	_, op := a.obsRec.StartOp(ctx, obs.LayerParity, "get")
	err := a.get(addr, n, dst, opts)
	if err == nil {
		op.AddBytes(n * FragmentSize)
	}
	op.End(err)
	return err
}

func (a *Array) get(addr, n int, dst []byte, opts diskservice.GetOptions) error {
	if err := a.checkSpan(addr, n); err != nil {
		return err
	}
	if len(dst) < n*FragmentSize {
		return fmt.Errorf("%w: %d bytes for %d fragments", device.ErrShortBuffer, len(dst), n)
	}
	if err := a.alive(); err != nil {
		return err
	}
	return a.readSpans(dst[:n*FragmentSize], a.planSpans(addr, n), opts, 0)
}

// pspan is a physically contiguous run on one disk serving one or more
// virtual spans.
type pspan struct {
	phys, frags, bufOff int
}

// perDisk is the one per-disk plan of the scatter-gather paths: it runs io
// over the spans' units grouped by the disk holding them, one fan-out task
// per disk in disk order, each disk's runs in sequence. Physically adjacent
// spans whose buffer targets are also adjacent merge into one run, so a
// long virtual run costs one member get- or put-block per disk per parity
// rotation rather than one per stripe.
func (a *Array) perDisk(spans []vspan, io func(d int, p pspan) error) error {
	runs := make([][]pspan, a.n)
	for _, sp := range spans {
		d := a.dataDisk(sp.stripe, sp.j)
		p := pspan{phys: a.physAddr(d, sp.stripe), frags: 1, bufOff: sp.bufOff}
		if rs := runs[d]; len(rs) > 0 {
			if last := &rs[len(rs)-1]; last.phys+last.frags == p.phys &&
				last.bufOff+last.frags*FragmentSize == p.bufOff {
				last.frags++
				continue
			}
		}
		runs[d] = append(runs[d], p)
	}
	var tasks []func() error
	for d, ps := range runs {
		if len(ps) == 0 {
			continue
		}
		d, ps := d, ps
		tasks = append(tasks, func() error {
			for _, p := range ps {
				if err := io(d, p); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return a.fanout(tasks)
}

// readSpans fills out with the spans' data: healthy spans as coalesced
// per-disk reads in one fan-out, then degraded spans by reconstruction, one
// stripe at a time in stripe order. depth guards the one retry after an
// in-flight disk failure.
func (a *Array) readSpans(out []byte, spans []vspan, opts diskservice.GetOptions, depth int) error {
	disks, failedIdx, rebuilding, w := a.snapshot()
	var healthy, degraded []vspan
	for _, sp := range spans {
		// FromStable reads never degrade: the stable store of a failed main
		// device is a separate pair of drives and stays reachable.
		if a.dataDisk(sp.stripe, sp.j) == failedIdx && !opts.FromStable && !(rebuilding && sp.stripe < w) {
			degraded = append(degraded, sp)
		} else {
			healthy = append(healthy, sp)
		}
	}
	err := a.perDisk(healthy, func(d int, p pspan) error {
		err := disks[d].GetInto(context.Background(), p.phys, p.frags, out[p.bufOff:p.bufOff+p.frags*FragmentSize], opts)
		if err != nil && errors.Is(err, device.ErrFailed) && !opts.FromStable && !a.noteFailure(d) {
			return fmt.Errorf("%w: disk %d: %v", ErrDoubleFailure, d, err)
		}
		return err
	})
	for _, sp := range degraded {
		if err != nil {
			break
		}
		err = a.reconstructSpan(out[sp.bufOff:sp.bufOff+FragmentSize], sp)
	}
	if err != nil && errors.Is(err, device.ErrFailed) && !errors.Is(err, ErrTooManyFailures) &&
		!opts.FromStable && depth == 0 {
		// A disk died mid-read and the failure was absorbed (noteFailure):
		// re-plan with the updated failure state and reconstruct.
		return a.readSpans(out, spans, opts, 1)
	}
	return err
}

// reconstructSpan recovers one lost unit by XOR across the surviving K disks
// (their data units plus the parity unit), under the stripe lock so a
// concurrent read-modify-write cannot be observed between its data and
// parity writes.
func (a *Array) reconstructSpan(dst []byte, sp vspan) error {
	lk := a.stripeLock(sp.stripe)
	lk.Lock()
	defer lk.Unlock()
	if err := a.alive(); err != nil {
		return err
	}
	disks, failedIdx, _, _ := a.snapshot()
	lost := a.dataDisk(sp.stripe, sp.j)
	if failedIdx >= 0 && failedIdx != lost {
		// A different disk is the failed one, so the "survivors" of this
		// reconstruction would include a failed disk.
		a.markDead()
		return ErrDoubleFailure
	}
	clear(dst)
	if err := a.xorUnits(disks, sp.stripe, a.others(lost), dst); err != nil {
		return err
	}
	a.met.degradedReads.Inc()
	return nil
}

// others returns every disk index but skip (-1: all of them), in order.
func (a *Array) others(skip int) []int {
	ds := make([]int, 0, a.n)
	for d := 0; d < a.n; d++ {
		if d != skip {
			ds = append(ds, d)
		}
	}
	return ds
}

// xorUnits reads stripe s's unit on each of the disks ds in one fan-out and
// folds them into acc (one fragment). It is the one survivor read of
// reconstruction, rebuild and scrub, and the read phase of both write
// rules. A member failing here is noted: with a unit already lost that is
// the second distinct failure, and the array is dead.
func (a *Array) xorUnits(disks []*diskservice.Server, s int, ds []int, acc []byte) error {
	bufs := make([][]byte, len(ds))
	tasks := make([]func() error, len(ds))
	for i, d := range ds {
		i, d := i, d
		tasks[i] = func() error {
			b, err := disks[d].Get(context.Background(), a.physAddr(d, s), 1, diskservice.GetOptions{})
			if err != nil && errors.Is(err, device.ErrFailed) && !a.noteFailure(d) {
				return fmt.Errorf("%w: disk %d: %v", ErrDoubleFailure, d, err)
			}
			bufs[i] = b
			return err
		}
	}
	if err := a.fanout(tasks); err != nil {
		return err
	}
	for _, b := range bufs {
		xorInto(acc, b)
	}
	return nil
}
