// Package device simulates a sector-addressable disk drive with a
// parametric timing model.
//
// The paper's performance claims are stated in units of "disk references" —
// physical operations issued to a drive — and in the seek/latency costs those
// references incur. This package reproduces exactly that accounting: every
// Read/Write call is one disk reference, head movement is tracked per track,
// and a Model converts (seeks, rotations, bytes) into virtual time on a
// simclock.OpClock. Data lives in memory; persistence across a simulated
// machine crash is the natural consequence of the buffer being retained while
// volatile caches above this layer are discarded.
//
// The externally visible unit is the fragment (2 KB), the paper's smallest
// allocation unit; a block is four contiguous fragments (8 KB).
package device

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/simclock"
)

// Fault points on the raw device operations. These take error injections
// (arm them with ErrFailed or ErrMediaError to model a dying drive without
// powering it off) — crash injection belongs to the layers above, where the
// careful-write ordering lives.
var (
	PtRead  = fault.Register("device.read")
	PtWrite = fault.Register("device.write")
)

// Storage units from the paper (§4): a fragment is 2 KB, a block is 8 KB,
// and four contiguous fragments make one block.
const (
	FragmentSize      = 2 * 1024
	BlockSize         = 8 * 1024
	FragmentsPerBlock = BlockSize / FragmentSize
)

// Errors returned by device operations.
var (
	// ErrOutOfRange reports an access beyond the end of the disk.
	ErrOutOfRange = errors.New("device: fragment address out of range")
	// ErrFailed reports an operation on a failed (powered-off) device.
	ErrFailed = errors.New("device: device has failed")
	// ErrMediaError reports an unreadable fragment.
	ErrMediaError = errors.New("device: media error")
	// ErrShortWrite reports a write with fewer bytes than the span requires.
	ErrShortWrite = errors.New("device: short write")
	// ErrShortBuffer reports a read into a buffer smaller than the span.
	ErrShortBuffer = errors.New("device: buffer shorter than the span")
)

// Geometry describes the layout of a simulated drive.
type Geometry struct {
	// FragmentsPerTrack is the number of 2 KB fragments on one track.
	FragmentsPerTrack int
	// Tracks is the number of tracks on the drive.
	Tracks int
}

// DefaultGeometry is a small drive (64 KB tracks, 64 MB total) suitable for
// tests; experiments size their own.
var DefaultGeometry = Geometry{FragmentsPerTrack: 32, Tracks: 1024}

// Capacity returns the total number of fragments on the drive.
func (g Geometry) Capacity() int { return g.FragmentsPerTrack * g.Tracks }

// Bytes returns the drive capacity in bytes.
func (g Geometry) Bytes() int64 { return int64(g.Capacity()) * FragmentSize }

// Track returns the track number holding fragment addr.
func (g Geometry) Track(addr int) int { return addr / g.FragmentsPerTrack }

// TrackStart returns the address of the first fragment on the given track.
func (g Geometry) TrackStart(track int) int { return track * g.FragmentsPerTrack }

func (g Geometry) validate() error {
	if g.FragmentsPerTrack <= 0 || g.Tracks <= 0 {
		return fmt.Errorf("device: invalid geometry %+v", g)
	}
	return nil
}

// Model is the timing model of a drive. The defaults approximate an early
// 1990s drive (3600 RPM, ~12 ms average seek) so that the experiment tables
// land in the same regime as the paper's context.
type Model struct {
	// SeekBase is the fixed cost of any head movement.
	SeekBase time.Duration
	// SeekPerTrack is the additional cost per track of travel.
	SeekPerTrack time.Duration
	// RotationalLatency is the average wait for the target sector
	// (half a revolution).
	RotationalLatency time.Duration
	// TransferPerFragment is the media transfer time for one fragment.
	TransferPerFragment time.Duration
	// WallFactor, when positive, makes each access occupy the spindle for
	// cost*WallFactor of real time (a sleep while the drive mutex is held).
	// Virtual accounting is unchanged; this exists so wall-clock throughput
	// benchmarks observe genuine per-spindle serialization and cross-spindle
	// parallelism. Zero (the default) keeps accesses instantaneous.
	WallFactor float64
}

// DefaultModel approximates a 3600 RPM drive of the paper's era.
var DefaultModel = Model{
	SeekBase:            3 * time.Millisecond,
	SeekPerTrack:        20 * time.Microsecond,
	RotationalLatency:   8300 * time.Microsecond, // half of a 16.7 ms revolution
	TransferPerFragment: 500 * time.Microsecond,  // ~4 MB/s media rate
}

// cost returns the virtual time for an access that moves the head `distance`
// tracks and transfers n fragments.
func (m Model) cost(distance, n int) time.Duration {
	var d time.Duration
	if distance > 0 {
		d += m.SeekBase + time.Duration(distance)*m.SeekPerTrack
	}
	d += m.RotationalLatency
	d += time.Duration(n) * m.TransferPerFragment
	return d
}

// Disk is a simulated drive. All methods are safe for concurrent use; the
// drive serializes operations like a real spindle, and concurrent accesses
// to different Disks never contend: each drive has its own mutex, the timing
// model is evaluated inside that per-drive critical section, and metric
// updates happen outside it on striped atomics.
type Disk struct {
	geom  Geometry
	model Model
	clock simclock.OpClock
	met   *metrics.Set // simulated time; the counters are resolved from it
	// refs, seeks, bytesRead and bytesWritten count metrics.DiskReferences,
	// DiskSeeks, DiskBytesRead and DiskBytesWrite (WithMetrics).
	refs, seeks, bytesRead, bytesWritten *metrics.Counter

	mu         sync.Mutex
	data       []byte
	head       int // current track
	failed     bool
	badFrags   map[int]bool // fragments that return ErrMediaError
	wallFactor float64

	fault *fault.Injector
	obs   *obs.Recorder
}

// Option configures a Disk.
type Option func(*Disk)

// WithClock sets the virtual clock that accumulates access time.
func WithClock(c simclock.OpClock) Option { return func(d *Disk) { d.clock = c } }

// WithMetrics sets the metric set that receives reference/seek/byte counters.
func WithMetrics(s *metrics.Set) Option {
	return func(d *Disk) {
		d.met = s
		d.refs, d.seeks = s.Counter(metrics.DiskReferences), s.Counter(metrics.DiskSeeks)
		d.bytesRead, d.bytesWritten = s.Counter(metrics.DiskBytesRead), s.Counter(metrics.DiskBytesWrite)
	}
}

// WithFault attaches a fault injector to the drive's read/write paths. A nil
// injector is valid and injects nothing.
func WithFault(in *fault.Injector) Option { return func(d *Disk) { d.fault = in } }

// WithObs attaches an observability recorder: every disk reference lands in
// the device-layer histograms (virtual time charged with the exact modeled
// cost), and ctx-threaded calls contribute device spans to the request
// tree. A nil recorder is valid and records nothing.
func WithObs(r *obs.Recorder) Option { return func(d *Disk) { d.obs = r } }

// New creates a drive with the given geometry. The default timing model is
// DefaultModel and the default clock is a fresh virtual clock.
func New(g Geometry, opts ...Option) (*Disk, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	d := &Disk{
		geom:  g,
		model: DefaultModel,
		clock: simclock.New(),
		data:  make([]byte, g.Bytes()),
	}
	for _, o := range opts {
		o(d)
	}
	d.wallFactor = d.model.WallFactor
	return d, nil
}

// SetWallFactor changes the wall-clock occupancy factor at runtime (see
// Model.WallFactor) — benchmarks use this to run their setup phase at full
// speed and then enable spindle occupancy for the measured phase.
func (d *Disk) SetWallFactor(f float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.wallFactor = f
}

// Geometry returns the drive geometry.
func (d *Disk) Geometry() Geometry { return d.geom }

// checkSpan validates the address range [start, start+n).
func (d *Disk) checkSpan(start, n int) error {
	if n <= 0 || start < 0 || start+n > d.geom.Capacity() {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfRange, start, start+n, d.geom.Capacity())
	}
	return nil
}

// charge accounts one disk reference transferring n fragments starting at
// fragment addr: it advances the head, charges the access cost to the clock
// at operation start, and occupies the spindle for the wall-clock window when
// WallFactor is set. Callers must hold d.mu and, after releasing it, call
// finish(cost, seeked) exactly once to close the operation and record the
// metrics outside the critical section.
func (d *Disk) charge(addr, n int) (cost time.Duration, seeked bool) {
	first := d.geom.Track(addr)
	last := d.geom.Track(addr + n - 1)
	distance := first - d.head
	if distance < 0 {
		distance = -distance
	}
	cost = d.model.cost(distance, n)
	// A multi-track transfer drags the head across the intervening tracks;
	// charge the (cheap, settled) track-to-track moves.
	if last > first {
		cost += time.Duration(last-first) * d.model.SeekPerTrack
	}
	d.head = last
	// Charging at operation start (BeginOp) reserves the member's virtual
	// interval while d.mu serializes this spindle, so same-disk operations
	// chain deterministically and cross-disk operations may overlap.
	d.clock.BeginOp(cost)
	if d.wallFactor > 0 {
		// Spindle occupancy: hold the drive for a slice of real time
		// proportional to the simulated cost.
		time.Sleep(time.Duration(float64(cost) * d.wallFactor))
	}
	return cost, distance > 0
}

// finish closes the operation opened by charge and records its counters on
// the striped metric set — deliberately outside d.mu, so metric accounting
// never extends the spindle's critical section.
func (d *Disk) finish(cost time.Duration, seeked bool) {
	d.clock.EndOp()
	d.refs.Inc()
	if seeked {
		d.seeks.Inc()
	}
	d.met.AddSimTime(cost)
}

// ReadFragments is ReadFragmentsInto a fresh buffer of n*FragmentSize bytes.
func (d *Disk) ReadFragments(ctx context.Context, start, n int) ([]byte, error) {
	buf := make([]byte, min(max(n, 0), d.geom.Capacity())*FragmentSize)
	return buf, d.ReadFragmentsInto(ctx, start, n, buf)
}

// ReadFragmentsInto reads n fragments starting at fragment address start as
// one disk reference into the first n*FragmentSize bytes of dst, the caller's
// buffer. The disk reference is bracketed as a device-layer op — a child span
// when ctx holds a span — with its exact modeled cost as the virtual duration.
// A span off the disk, a dst shorter than the span, a failed drive or an
// unreadable fragment fails before the reference: nothing is charged or
// counted.
func (d *Disk) ReadFragmentsInto(ctx context.Context, start, n int, dst []byte) error {
	if d.obs == nil {
		_, err := d.readFragments(start, n, dst)
		return err
	}
	_, op := d.obs.StartOp(ctx, obs.LayerDevice, "read")
	cost, err := d.readFragments(start, n, dst)
	if err == nil {
		op.AddBytes(n * FragmentSize)
	}
	op.EndCost(cost, err)
	return err
}

func (d *Disk) readFragments(start, n int, dst []byte) (time.Duration, error) {
	if err := d.checkSpan(start, n); err != nil {
		return 0, err
	}
	if len(dst) < n*FragmentSize {
		return 0, fmt.Errorf("%w: %d bytes for %d fragments", ErrShortBuffer, len(dst), n)
	}
	if err := d.fault.Err(PtRead); err != nil {
		return 0, err
	}
	d.mu.Lock()
	if d.failed {
		d.mu.Unlock()
		return 0, ErrFailed
	}
	for f := start; f < start+n; f++ {
		if d.badFrags[f] {
			d.mu.Unlock()
			return 0, fmt.Errorf("%w: fragment %d", ErrMediaError, f)
		}
	}
	cost, seeked := d.charge(start, n)
	copy(dst[:n*FragmentSize], d.data[start*FragmentSize:])
	d.mu.Unlock()
	d.finish(cost, seeked)
	d.bytesRead.Add(int64(n) * FragmentSize)
	return cost, nil
}

// WriteFragments writes len(data)/FragmentSize fragments starting at fragment
// address start as one disk reference. data must be a whole number of
// fragments. The reference is bracketed as in ReadFragments.
func (d *Disk) WriteFragments(ctx context.Context, start int, data []byte) error {
	if d.obs == nil {
		_, err := d.writeFragments(start, data)
		return err
	}
	_, op := d.obs.StartOp(ctx, obs.LayerDevice, "write")
	cost, err := d.writeFragments(start, data)
	op.AddBytes(len(data))
	op.EndCost(cost, err)
	return err
}

func (d *Disk) writeFragments(start int, data []byte) (time.Duration, error) {
	if len(data) == 0 || len(data)%FragmentSize != 0 {
		return 0, fmt.Errorf("%w: %d bytes is not a whole number of fragments", ErrShortWrite, len(data))
	}
	n := len(data) / FragmentSize
	if err := d.checkSpan(start, n); err != nil {
		return 0, err
	}
	if err := d.fault.Err(PtWrite); err != nil {
		return 0, err
	}
	d.mu.Lock()
	if d.failed {
		d.mu.Unlock()
		return 0, ErrFailed
	}
	cost, seeked := d.charge(start, n)
	copy(d.data[start*FragmentSize:], data)
	d.clearCorruption(start, n)
	d.mu.Unlock()
	d.finish(cost, seeked)
	d.bytesWritten.Add(int64(len(data)))
	return cost, nil
}

// ReadTrack reads the entire track holding fragment addr as one disk
// reference, returning the track's fragments and the address of the first
// one. This is the primitive behind the disk service's track read-ahead
// cache (§4): the service fetches what a request needs and caches the rest
// of the track.
func (d *Disk) ReadTrack(ctx context.Context, addr int) (data []byte, trackStart int, err error) {
	if err := d.checkSpan(addr, 1); err != nil {
		return nil, 0, err
	}
	trackStart = d.geom.TrackStart(d.geom.Track(addr))
	data, err = d.ReadFragments(ctx, trackStart, d.geom.FragmentsPerTrack)
	return data, trackStart, err
}

// Fail powers the drive off: every subsequent operation returns ErrFailed
// until Repair is called. Platter contents are retained, as on a real drive.
func (d *Disk) Fail() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed = true
}

// Repair brings a failed drive back online.
func (d *Disk) Repair() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed = false
}

// CorruptFragment marks a fragment as unreadable (a media error). Writes to
// the fragment succeed and clear the error, as rewriting a sector does on
// real media.
func (d *Disk) CorruptFragment(addr int) error {
	if err := d.checkSpan(addr, 1); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.badFrags == nil {
		d.badFrags = make(map[int]bool)
	}
	d.badFrags[addr] = true
	return nil
}

// clearCorruption removes media errors in [start, start+n). Callers must
// hold d.mu.
func (d *Disk) clearCorruption(start, n int) {
	for f := start; f < start+n; f++ {
		delete(d.badFrags, f)
	}
}

// HeadTrack returns the track the head currently rests on (for tests and
// placement experiments).
func (d *Disk) HeadTrack() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.head
}
