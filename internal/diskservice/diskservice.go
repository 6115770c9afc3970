// Package diskservice implements the RHODOS disk service (§4): one server
// per disk, managing blocks (8 KB) and fragments (2 KB) with the five
// service functions of the paper — allocate-block, free-block, flush-block,
// get-block and put-block.
//
// The semantics follow §4 exactly:
//
//   - Any operation on a set of contiguous blocks/fragments is accomplished
//     in one single reference to the disk.
//   - put-block can save data on its original location only, exclusively on
//     stable storage (the shadow-page case), or on both (the file-index-table
//     case); when stable storage is involved the caller chooses whether the
//     call returns before or after the stable copy is saved.
//   - get-block retrieves from main storage by default or from stable
//     storage on request.
//   - On a read the service fetches only the fragments the request needs,
//     then caches the rest of the same track to satisfy subsequent requests
//     (track read-ahead).
//   - Free space is managed with a bitmap plus the 64×64 contiguous-run
//     table (package freespace), both persisted: the bitmap on the disk
//     itself and mirrored to stable storage, since it is vital structural
//     information.
//
// Stable storage mirrors the disk's address space one-to-one, so "save this
// fragment on stable storage" needs no extra address translation — put-block
// at address A with StableOnly writes the stable pair at A.
package diskservice

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/freespace"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/stable"
)

// Sizes re-exported for convenience of the layers above.
const (
	FragmentSize      = device.FragmentSize
	BlockSize         = device.BlockSize
	FragmentsPerBlock = device.FragmentsPerBlock
)

// Stability selects where put-block saves data (§4).
type Stability int

const (
	// MainOnly saves on the original location only.
	MainOnly Stability = iota + 1
	// StableOnly saves exclusively on stable storage — the shadow-page case.
	StableOnly
	// MainAndStable saves on the original location and on stable storage —
	// the file-index-table case.
	MainAndStable
)

// String implements fmt.Stringer.
func (s Stability) String() string {
	switch s {
	case MainOnly:
		return "main-only"
	case StableOnly:
		return "stable-only"
	case MainAndStable:
		return "main+stable"
	default:
		return fmt.Sprintf("Stability(%d)", int(s))
	}
}

// PutOptions control put-block.
type PutOptions struct {
	// Stability selects the destination; zero means MainOnly.
	Stability Stability
	// WaitStable, when a stable copy is requested, makes the call return the
	// stable write's error. When false the stable copy is still written
	// before the call returns, but its error is kept for the next Flush (or
	// log sync) instead of returned.
	WaitStable bool
}

// GetOptions control get-block.
type GetOptions struct {
	// FromStable retrieves the data from stable storage instead of main
	// storage.
	FromStable bool
	// NoReadAhead disables track read-ahead for this request: the file
	// service sets it on a miss that continues no sequential stream, where the
	// rest of the track is not worth a whole-track read (experiment ablations
	// use it too).
	NoReadAhead bool
}

// Errors returned by the disk service.
var (
	// ErrNotFormatted reports a mount of a disk with no valid superblock.
	ErrNotFormatted = errors.New("diskservice: disk not formatted")
)

const superMagic = 0x52484F44 // "RHOD"

// trackCacheTracks is the number of tracks the read-ahead cache holds.
const trackCacheTracks = 16

// Config configures a Server.
type Config struct {
	// DiskID identifies this disk within the facility.
	DiskID int
	// Disk is the drive this server owns. Required.
	Disk *device.Disk
	// Stable is the stable store mirroring this disk's address space; its
	// capacity must equal the disk's. Required.
	Stable *stable.Store
	// Metrics receives operation counters. Optional.
	Metrics *metrics.Set
	// DisableReadAhead turns the track cache off entirely (ablation E5).
	DisableReadAhead bool
	// Obs receives per-request spans/latency observations and the disk's
	// queue-depth gauge. Optional.
	Obs *obs.Recorder
}

// Server is a disk server. It is safe for concurrent use.
type Server struct {
	id        int
	disk      *device.Disk
	stable    *stable.Store
	met       *metrics.Set
	readAhead bool
	obsRec    *obs.Recorder
	queue     *obs.Gauge // in-flight get/put requests on this disk

	mu    sync.Mutex
	fsmap *freespace.Map

	trackCache *cache.Cache[int] // track number -> track bytes
	// tcMu orders track-cache installs against main-storage writes. A put,
	// once its bytes are on the platter, bumps putGen and patches the cached
	// tracks under tcMu; a get miss installs the track image it read only if
	// putGen still has the value sampled before the read — otherwise the
	// image may predate a put whose patch found nothing to patch.
	tcMu   sync.Mutex
	putGen uint64

	// metaFrags is the size of the reserved metadata region (superblock +
	// bitmap) at the start of the disk.
	metaFrags int
}

// Format initializes a fresh disk: writes a superblock, reserves the
// metadata region, and persists an empty bitmap to both the disk and stable
// storage. It returns a mounted Server.
func Format(cfg Config) (*Server, error) {
	s, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	capacity := cfg.Disk.Geometry().Capacity()
	s.metaFrags = 1 + bitmapFragments(capacity)
	if err := s.fsmap.AllocateAt(0, s.metaFrags); err != nil {
		return nil, fmt.Errorf("diskservice: reserving metadata region: %w", err)
	}
	if err := s.persistMetadataLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// Mount opens a previously formatted disk, loading the bitmap (and, if the
// on-disk copy is unreadable, recovering it from stable storage).
func Mount(cfg Config) (*Server, error) {
	s, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	capacity := cfg.Disk.Geometry().Capacity()
	s.metaFrags = 1 + bitmapFragments(capacity)

	super, err := s.readMeta(0, 1)
	if err != nil {
		return nil, fmt.Errorf("diskservice: reading superblock: %w", err)
	}
	if binary.BigEndian.Uint32(super) != superMagic {
		return nil, ErrNotFormatted
	}
	if got := int(binary.BigEndian.Uint64(super[4:])); got != capacity {
		return nil, fmt.Errorf("diskservice: superblock capacity %d does not match disk %d", got, capacity)
	}
	raw, err := s.readMeta(1, bitmapFragments(capacity))
	if err != nil {
		return nil, fmt.Errorf("diskservice: reading bitmap: %w", err)
	}
	words := make([]uint64, (capacity+63)/64)
	for i := range words {
		words[i] = binary.BigEndian.Uint64(raw[i*8:])
	}
	if err := s.fsmap.LoadBitmap(words); err != nil {
		return nil, fmt.Errorf("diskservice: loading bitmap: %w", err)
	}
	return s, nil
}

// readMeta reads metadata fragments from the disk, falling back to the
// stable mirror on a media error.
func (s *Server) readMeta(start, n int) ([]byte, error) {
	data, err := s.disk.ReadFragments(context.Background(), start, n)
	if err == nil {
		return data, nil
	}
	if !errors.Is(err, device.ErrMediaError) {
		return nil, err
	}
	return s.stable.Read(start, n)
}

func newServer(cfg Config) (*Server, error) {
	if cfg.Disk == nil {
		return nil, errors.New("diskservice: nil disk")
	}
	if cfg.Stable == nil {
		return nil, errors.New("diskservice: nil stable store")
	}
	capacity := cfg.Disk.Geometry().Capacity()
	if cfg.Stable.Capacity() != capacity {
		return nil, fmt.Errorf("diskservice: stable capacity %d does not mirror disk capacity %d",
			cfg.Stable.Capacity(), capacity)
	}
	fsmap, err := freespace.NewMap(capacity)
	if err != nil {
		return nil, err
	}
	// The track cache holds clean images only, so it needs no writeback.
	tc, err := cache.New(cache.Config[int]{
		Capacity:    trackCacheTracks,
		Metrics:     cfg.Metrics,
		HitCounter:  metrics.TrackCacheHit,
		MissCounter: metrics.TrackCacheMiss,
	})
	if err != nil {
		return nil, err
	}
	return &Server{
		disk:       cfg.Disk,
		stable:     cfg.Stable,
		met:        cfg.Metrics,
		readAhead:  !cfg.DisableReadAhead,
		obsRec:     cfg.Obs,
		queue:      cfg.Obs.Gauge(fmt.Sprintf("disk.%d.queue_depth", cfg.DiskID)),
		fsmap:      fsmap,
		trackCache: tc,
	}, nil
}

func bitmapFragments(capacity int) int {
	bytes := ((capacity + 63) / 64) * 8
	return (bytes + FragmentSize - 1) / FragmentSize
}

// Capacity returns the disk size in fragments.
func (s *Server) Capacity() int { return s.disk.Geometry().Capacity() }

// FreeFragments returns the number of free fragments.
func (s *Server) FreeFragments() int { return s.fsmap.FreeCount() }

// AllocateFragments claims n contiguous fragments and returns the address of
// the first (allocate-block for fragment-granularity callers, used for file
// index tables and other structural data).
func (s *Server) AllocateFragments(n int) (int, error) {
	return s.fsmap.Allocate(n)
}

// AllocateFragmentsNear is AllocateFragments preferring addresses close to
// hint — used to place a file's first data block next to its FIT (§5).
func (s *Server) AllocateFragmentsNear(hint, n int) (int, error) {
	return s.fsmap.AllocateNear(hint, n)
}

// AllocateBlocks claims n contiguous blocks (4n fragments) and returns the
// fragment address of the first — the paper's allocate-block.
func (s *Server) AllocateBlocks(n int) (int, error) {
	return s.AllocateFragments(n * FragmentsPerBlock)
}

// AllocateBlocksNear is AllocateBlocks with a placement hint.
func (s *Server) AllocateBlocksNear(hint, n int) (int, error) {
	return s.AllocateFragmentsNear(hint, n*FragmentsPerBlock)
}

// ResetBitmap discards all allocations except the metadata region. It is
// used by the file service's mount-time reconstruction: after a crash the
// persisted bitmap may be stale, so the authoritative allocation state is
// rebuilt from the persisted file index tables, exactly as the paper's
// "initialization and subsequent updation of this array is carried out by
// scanning the bitmap" extends to rebuilding the bitmap from the structures
// it protects.
func (s *Server) ResetBitmap() error {
	capacity := s.Capacity()
	fsmap, err := freespace.NewMap(capacity)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.fsmap = fsmap
	meta := s.metaFrags
	s.mu.Unlock()
	if meta > 0 {
		return s.fsmap.AllocateAt(0, meta)
	}
	return nil
}

// AllocateAt claims the exact span [addr, addr+n) — used by layers above
// for fixed structures like the file service's superfragment.
func (s *Server) AllocateAt(addr, n int) error {
	return s.fsmap.AllocateAt(addr, n)
}

// Free returns n fragments starting at addr to the free pool — the paper's
// free-block, for any mix of blocks and fragments.
func (s *Server) Free(addr, n int) error {
	return s.fsmap.Free(addr, n)
}

// Get is GetInto a fresh buffer of n*FragmentSize bytes.
func (s *Server) Get(ctx context.Context, addr, n int, opts GetOptions) ([]byte, error) {
	buf := make([]byte, min(max(n, 0), s.Capacity())*FragmentSize)
	return buf, s.GetInto(ctx, addr, n, buf, opts)
}

// GetInto is the paper's get-block: it reads n contiguous fragments starting
// at addr in one disk reference into the first n*FragmentSize bytes of dst,
// the caller's buffer. By default data comes from main storage, with the
// track read-ahead cache consulted first — a hit copies the fragments
// straight out of the cached track into dst; with FromStable it comes from
// the stable mirror. The request is bracketed by a diskservice-layer span
// under ctx's (or a histogram observation) and counts against this disk's
// queue-depth gauge. A span off the disk or a dst shorter than the span
// fails before any disk reference.
func (s *Server) GetInto(ctx context.Context, addr, n int, dst []byte, opts GetOptions) error {
	s.queue.Inc()
	ctx, op := s.obsRec.StartOp(ctx, obs.LayerDiskService, "get")
	err := s.get(ctx, addr, n, dst, opts)
	if err == nil {
		op.AddBytes(n * FragmentSize)
	}
	op.End(err)
	s.queue.Dec()
	return err
}

func (s *Server) get(ctx context.Context, addr, n int, dst []byte, opts GetOptions) error {
	geom := s.disk.Geometry()
	if n <= 0 || addr < 0 || addr+n > geom.Capacity() {
		return fmt.Errorf("%w: [%d,%d)", device.ErrOutOfRange, addr, addr+n)
	}
	if len(dst) < n*FragmentSize {
		return fmt.Errorf("%w: %d bytes for %d fragments", device.ErrShortBuffer, len(dst), n)
	}
	dst = dst[:n*FragmentSize]
	if opts.FromStable {
		data, err := s.stable.Read(addr, n)
		copy(dst, data)
		return err
	}
	firstTrack := geom.Track(addr)
	if !s.readAhead || opts.NoReadAhead || firstTrack != geom.Track(addr+n-1) {
		// Multi-track transfers bypass the track cache: they are one disk
		// reference already and would otherwise flood the cache.
		return s.disk.ReadFragmentsInto(ctx, addr, n, dst)
	}
	off := (addr - geom.TrackStart(firstTrack)) * FragmentSize
	if s.trackCache.ReadRange(firstTrack, off, dst) {
		return nil
	}
	// Miss: fetch the whole track in one reference, serve the requested
	// fragments, cache the rest (§4).
	s.tcMu.Lock()
	gen := s.putGen
	s.tcMu.Unlock()
	trackData, _, err := s.disk.ReadTrack(ctx, addr)
	if err != nil {
		return err
	}
	s.tcMu.Lock()
	if s.putGen == gen {
		err = s.trackCache.Put(firstTrack, trackData, false)
	}
	s.tcMu.Unlock()
	if err != nil {
		return err
	}
	copy(dst, trackData[off:])
	return nil
}

// Put is the paper's put-block: it writes data (a whole number of fragments)
// at addr in one disk reference per destination. opts.Stability selects main
// storage, stable storage, or both; opts.WaitStable selects whether the call
// waits for the stable copy. It is bracketed and counted like Get.
func (s *Server) Put(ctx context.Context, addr int, data []byte, opts PutOptions) error {
	s.queue.Inc()
	ctx, op := s.obsRec.StartOp(ctx, obs.LayerDiskService, "put")
	op.AddBytes(len(data))
	err := s.put(ctx, addr, data, opts)
	op.End(err)
	s.queue.Dec()
	return err
}

func (s *Server) put(ctx context.Context, addr int, data []byte, opts PutOptions) error {
	st := opts.Stability
	if st == 0 {
		st = MainOnly
	}
	if st == MainOnly || st == MainAndStable {
		if err := s.disk.WriteFragments(ctx, addr, data); err != nil {
			return err
		}
		s.updateTrackCache(addr, data)
	}
	if st == StableOnly || st == MainAndStable {
		if opts.WaitStable {
			if err := s.stable.Write(addr, data); err != nil {
				return err
			}
		} else {
			if err := s.stable.WriteDeferred(addr, data); err != nil {
				return err
			}
		}
	}
	return nil
}

// updateTrackCache keeps cached tracks coherent with a main-storage write
// that has reached the platter: each cached track the span touches is patched
// in place, so concurrent puts to disjoint fragments of one track all land.
func (s *Server) updateTrackCache(addr int, data []byte) {
	geom := s.disk.Geometry()
	n := len(data) / FragmentSize
	s.tcMu.Lock()
	defer s.tcMu.Unlock()
	s.putGen++
	for frag := addr; frag < addr+n; {
		track := geom.Track(frag)
		trackStart := geom.TrackStart(track)
		trackEnd := trackStart + geom.FragmentsPerTrack
		spanEnd := addr + n
		if spanEnd > trackEnd {
			spanEnd = trackEnd
		}
		s.trackCache.Patch(track, (frag-trackStart)*FragmentSize, data[(frag-addr)*FragmentSize:(spanEnd-addr)*FragmentSize])
		frag = spanEnd
	}
}

// Flush is the paper's flush-block: it makes all buffered state durable —
// the bitmap is persisted to the disk and its stable mirror, and the first
// error of a deferred stable write, if any, is reported.
func (s *Server) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.persistMetadataLocked()
}

func (s *Server) persistMetadataLocked() error {
	super := make([]byte, FragmentSize)
	binary.BigEndian.PutUint32(super, superMagic)
	binary.BigEndian.PutUint64(super[4:], uint64(s.Capacity()))
	words := s.fsmap.Bitmap()
	raw := make([]byte, bitmapFragments(s.Capacity())*FragmentSize)
	for i, w := range words {
		binary.BigEndian.PutUint64(raw[i*8:], w)
	}
	// Vital structural information: original location and stable storage
	// (the file-index-table flavour of put-block).
	if err := s.disk.WriteFragments(context.Background(), 0, super); err != nil {
		return fmt.Errorf("diskservice: writing superblock: %w", err)
	}
	if err := s.disk.WriteFragments(context.Background(), 1, raw); err != nil {
		return fmt.Errorf("diskservice: writing bitmap: %w", err)
	}
	if err := s.stable.Write(0, super); err != nil {
		return err
	}
	if err := s.stable.Write(1, raw); err != nil {
		return err
	}
	if err := s.stable.Flush(); err != nil {
		return err
	}
	return nil
}

// InvalidateCache empties the track cache (used by experiments to force cold
// reads).
func (s *Server) InvalidateCache() { s.trackCache.InvalidateAll() }

// MetadataFragments returns the size of the reserved metadata region, i.e.
// the first allocatable address (diagnostic; used by fsck and tests).
func (s *Server) MetadataFragments() int { return s.metaFrags }
