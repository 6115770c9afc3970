// Package fileservice implements the RHODOS basic file service (§5): a flat
// service over mutable files, each described by a file index table (package
// fit) whose block descriptors — with their two-byte contiguity counts — let
// the service retrieve every contiguous run of disk blocks with one single
// reference to the disk.
//
// Files are addressed by system name (FileID); attributed-name resolution is
// the naming service's job (§3). Data location follows the paper's three
// steps: the naming layer finds the file service, the service locates and
// caches the file index table, then locates and caches the data blocks.
//
// Blocks of one file may live on different disk servers ("a file can be
// partitioned and therefore its contents can reside on more than one disk",
// §7); the striping policy chooses locality (fill near the FIT) or spread
// (round-robin extents across disks).
//
// File index tables are created dynamically, adjacent to the file's first
// data block when space permits (§5), and every FIT write goes to both its
// original location and stable storage — it is vital structural information.
// Data-block modifications follow the delayed-write policy for basic files
// and write-through for transaction files (§5).
//
// Locking is two-level. A short structural lock (s.mu) guards only the
// open-file table, the file map, and ID allocation; each file then has its
// own lock (fileState.mu) held across its I/O. The lock order is s.mu before
// st.mu, and s.mu is never held across data-path disk I/O, so operations on
// different files — and their disk transfers — proceed in parallel. Striped
// reads, writes and flushes that span several disks fan out with one
// goroutine per disk (see io.go).
package fileservice

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/diskservice"
	"repro/internal/fit"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/simclock"
)

// FileID is a file's system name.
type FileID uint64

// Sizes re-exported for callers.
const (
	BlockSize         = diskservice.BlockSize
	FragmentSize      = diskservice.FragmentSize
	FragmentsPerBlock = diskservice.FragmentsPerBlock

	// MaxSingleFetchBlocks caps how many contiguous blocks one get-block
	// fetches: 64 blocks = 512 KB, the paper's direct-access guarantee (§5).
	MaxSingleFetchBlocks = 64
)

// StripePolicy selects how new extents are placed across disk servers.
type StripePolicy int

const (
	// Locality places data next to the file's FIT and previous extent,
	// maximizing contiguity (the default).
	Locality StripePolicy = iota + 1
	// Spread round-robins extents across all disks, maximizing parallel
	// bandwidth for large files (experiment E14).
	Spread
)

// Errors.
var (
	ErrNotFound   = errors.New("fileservice: no such file")
	ErrNotOpen    = errors.New("fileservice: file not open")
	ErrNoSpace    = errors.New("fileservice: no space on any disk")
	ErrBadOffset  = errors.New("fileservice: negative offset")
	ErrFileBusy   = errors.New("fileservice: file is open")
	ErrClosed     = errors.New("fileservice: service closed")
	ErrBadRequest = errors.New("fileservice: bad request")
)

// blockKey identifies a cached data block by physical location.
type blockKey struct {
	disk int
	addr int
}

// Config configures a Service.
type Config struct {
	// Disks are the storage backends the service stores data on — plain
	// disk servers, or a parity array presenting several servers as one
	// fault-tolerant backend. Disk IDs used in block descriptors are indexes
	// into this slice. Required, non-empty.
	Disks []Backend
	// Metrics receives cache and operation counters. Optional.
	Metrics *metrics.Set
	// CacheBlocks is the block-cache capacity in blocks; defaults to 256.
	CacheBlocks int
	// Stripe is the extent placement policy; defaults to Locality.
	Stripe StripePolicy
	// StripeUnitBlocks is the extent size used by the Spread policy;
	// defaults to 8 blocks (64 KB).
	StripeUnitBlocks int
	// Overlap, when set, is notified when the service fans I/O out to
	// several disks at once, so an overlap-aware virtual-time accounting
	// (simclock.Group) can credit the parallelism. Optional.
	Overlap simclock.Batcher
	// Obs receives per-operation spans and latency observations. Optional.
	Obs *obs.Recorder
}

// fileState is the in-memory state of one known file — the cached FIT plus
// the decoded extent map. Its mutex guards every field below it and is held
// across the file's I/O; the service's structural lock is not.
type fileState struct {
	mu sync.Mutex

	id       FileID
	fitDisk  int
	fitAddr  int
	attr     fit.Attributes
	extents  *fit.ExtentMap
	indirect []fit.Extent // locations of indirect blocks
	refCount int
	// fitDirty marks a vital change not yet on disk — extents, size,
	// indirect pointers, lock level, the reserved block — which the write
	// path and the last Close write through. attrDirty marks a lazily
	// persisted one — the last-read stamp, the §2.2 per-use service flip —
	// which rides along with the next FIT write for any reason and is
	// written on its own only by Flush, Shutdown and DropFITCache.
	fitDirty  bool
	attrDirty bool
	// reservedAddr is the fragment address of the data block reserved
	// adjacent to the FIT at creation (-1 when absent or consumed).
	reservedAddr int
	// loaded reports whether the FIT has been read; states are inserted
	// into the table as unloaded placeholders so the structural lock never
	// covers the load's disk I/O.
	loaded bool
	// gone marks a state object that was deleted or evicted from the table;
	// a waiter that acquires mu and finds gone must retry through the map.
	gone bool
	// next holds one cursor per recent access stream on the file, most
	// recent first: the block after the last one the stream touched. A miss
	// is sized by whether its access continues one (see sequential).
	next [4]int
	// keyBuf is flushFile's list of the file's block keys, kept for the
	// next close.
	keyBuf []blockKey
}

// counters are the read path's counters, resolved from Config.Metrics in
// New (the block cache resolves its hit and miss counters itself).
type counters struct {
	cacheHit, stream, demand, streamBlocks, demandBlocks *metrics.Counter
}

func newCounters(set *metrics.Set) counters {
	return counters{
		cacheHit:     set.Counter(metrics.ServerCacheHit),
		stream:       set.Counter(metrics.FetchStream),
		demand:       set.Counter(metrics.FetchDemand),
		streamBlocks: set.Counter(metrics.FetchStreamBlocks),
		demandBlocks: set.Counter(metrics.FetchDemandBlocks),
	}
}

// Service is a basic file service. It is safe for concurrent use.
type Service struct {
	disks      []Backend
	met        counters
	obsRec     *obs.Recorder
	stripe     StripePolicy
	stripeUnit int
	overlap    simclock.Batcher
	nextStripe atomic.Uint32 // round-robin cursor for Spread

	// mu is the structural lock: it guards the open-file table, the file
	// map and ID allocation, and is never held across data-path disk I/O.
	mu     sync.Mutex
	closed bool
	files  map[FileID]*fileState
	// The file map and its persisted layout (see filemap.go): mapFrags[0] is
	// the superfragment and mapFrags[1:] the chain in link order; mapRoom
	// lists the fragments with a free slot. IDs below reservedID are covered
	// by the persisted high-water mark.
	fileMap    map[FileID]mapEntry
	mapFrags   []mapFragment
	mapRoom    []int
	nextID     FileID
	reservedID FileID

	blockCache *cache.Cache[blockKey]
}

// New creates a Service over freshly formatted disks, claiming its
// superfragment on disk 0.
func New(cfg Config) (*Service, error) {
	s, err := newService(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.disks[0].AllocateAt(s.superAddr(), 1); err != nil {
		return nil, fmt.Errorf("fileservice: claiming superfragment: %w", err)
	}
	s.nextID = 1
	s.reservedID = s.nextID + idReserve
	if err := s.persistMapLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// Mount opens a Service over previously used disks, loading the file map
// and reconstructing each disk's free-space bitmap from the persisted file
// index tables. The persisted bitmap can be stale after a crash (it is only
// checkpointed at flush-block time), so the FITs — which are written through
// to disk and stable storage on every structural change — are the
// authoritative record of what is allocated.
func Mount(cfg Config) (*Service, error) {
	s, err := newService(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.loadMapLocked(); err != nil {
		return nil, err
	}
	if err := s.rebuildBitmapsLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// rebuildBitmapsLocked resets every disk's allocation state and re-marks all
// structures reachable from the file map: the superfragment, the map chain,
// every FIT, indirect blocks, and every data extent.
func (s *Service) rebuildBitmapsLocked() error {
	for _, d := range s.disks {
		if err := d.ResetBitmap(); err != nil {
			return err
		}
	}
	if err := s.disks[0].AllocateAt(s.superAddr(), 1); err != nil {
		return fmt.Errorf("fileservice: remarking superfragment: %w", err)
	}
	for _, f := range s.mapFrags[1:] {
		if err := s.disks[f.loc.Disk].AllocateAt(int(f.loc.Addr), 1); err != nil {
			return fmt.Errorf("fileservice: remarking file-map chain: %w", err)
		}
	}
	for id, loc := range s.fileMap {
		st, err := s.loadStateLocked(id, loc.fitLocation)
		if err != nil {
			return fmt.Errorf("fileservice: rebuilding from FIT of file %d: %w", id, err)
		}
		if err := s.disks[loc.Disk].AllocateAt(int(loc.Addr), 1); err != nil {
			return fmt.Errorf("fileservice: remarking FIT of file %d: %w", id, err)
		}
		for _, e := range st.indirect {
			if err := s.disks[e.Disk].AllocateAt(int(e.Addr), FragmentsPerBlock); err != nil {
				return fmt.Errorf("fileservice: remarking indirect block of file %d: %w", id, err)
			}
		}
		for _, e := range st.extents.Extents() {
			if err := s.disks[e.Disk].AllocateAt(int(e.Addr), int(e.Count)*FragmentsPerBlock); err != nil {
				return fmt.Errorf("fileservice: remarking extent of file %d: %w", id, err)
			}
		}
	}
	return nil
}

func newService(cfg Config) (*Service, error) {
	if len(cfg.Disks) == 0 {
		return nil, errors.New("fileservice: no disks")
	}
	if len(cfg.Disks) > 1<<16 {
		return nil, errors.New("fileservice: too many disks")
	}
	cb := cfg.CacheBlocks
	if cb <= 0 {
		cb = 256
	}
	stripe := cfg.Stripe
	if stripe == 0 {
		stripe = Locality
	}
	unit := cfg.StripeUnitBlocks
	if unit <= 0 {
		unit = 8
	}
	s := &Service{
		disks:      cfg.Disks,
		met:        newCounters(cfg.Metrics),
		obsRec:     cfg.Obs,
		stripe:     stripe,
		stripeUnit: unit,
		overlap:    cfg.Overlap,
		files:      make(map[FileID]*fileState),
		fileMap:    make(map[FileID]mapEntry),
	}
	bc, err := cache.New(cache.Config[blockKey]{
		Capacity: cb,
		Writeback: func(k blockKey, data []byte) error {
			return s.disks[k.disk].Put(context.Background(), k.addr, data, diskservice.PutOptions{})
		},
		Metrics:     cfg.Metrics,
		HitCounter:  metrics.ServerCacheHit,
		MissCounter: metrics.ServerCacheMiss,
	})
	if err != nil {
		return nil, err
	}
	s.blockCache = bc
	return s, nil
}

// superAddr is the fixed fragment address of the service superfragment on
// disk 0 — the first fragment after the disk service's metadata region.
func (s *Service) superAddr() int { return s.disks[0].MetadataFragments() }

// DiskServer returns storage backend i (used by the transaction service for
// shadow-page staging and by experiments).
func (s *Service) DiskServer(i int) Backend { return s.disks[i] }

// newFileState returns an unloaded placeholder for a file known to live at
// loc.
func newFileState(id FileID, loc fitLocation) *fileState {
	return &fileState{
		id: id, fitDisk: int(loc.Disk), fitAddr: int(loc.Addr),
		extents: fit.NewExtentMap(nil), reservedAddr: -1,
	}
}

// fileHandle returns the state object for id, inserting an unloaded
// placeholder on first reference. It takes only the structural lock and
// performs no disk I/O.
func (s *Service) fileHandle(id FileID) (*fileState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if st, ok := s.files[id]; ok {
		return st, nil
	}
	loc, ok := s.fileMap[id]
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	st := newFileState(id, loc.fitLocation)
	s.files[id] = st
	return st, nil
}

// lockFile returns id's state with st.mu held and the FIT loaded — step two
// of the three-step data location (§5). The FIT load's disk I/O runs under
// the per-file lock only, so concurrent operations on other files are not
// blocked. Callers must release st.mu.
func (s *Service) lockFile(id FileID) (*fileState, error) {
	for {
		st, err := s.fileHandle(id)
		if err != nil {
			return nil, err
		}
		st.mu.Lock()
		if st.gone {
			// The state was deleted or evicted while we waited for its lock;
			// retry through the map.
			st.mu.Unlock()
			continue
		}
		if st.loaded {
			return st, nil
		}
		if err := s.loadFIT(st); err != nil {
			st.gone = true
			st.mu.Unlock()
			s.mu.Lock()
			if cur, ok := s.files[id]; ok && cur == st {
				delete(s.files, id)
			}
			s.mu.Unlock()
			return nil, err
		}
		st.loaded = true
		return st, nil
	}
}

// loadStateLocked returns the cached state for id, loading it from loc and
// caching it if absent. Callers must hold s.mu (mount-time rebuild and
// Check, which serialize on the structural lock).
func (s *Service) loadStateLocked(id FileID, loc fitLocation) (*fileState, error) {
	if st, ok := s.files[id]; ok {
		st.mu.Lock()
		defer st.mu.Unlock()
		if st.loaded {
			return st, nil
		}
		if err := s.loadFIT(st); err != nil {
			return nil, err
		}
		st.loaded = true
		return st, nil
	}
	st := newFileState(id, loc)
	if err := s.loadFIT(st); err != nil {
		return nil, err
	}
	st.loaded = true
	s.files[id] = st
	return st, nil
}

// Create makes a new empty file and returns its system name. The FIT is
// created dynamically, and when space permits the fragment after it is
// reserved so the first data block is contiguous with the FIT (§5).
func (s *Service) Create(attr fit.Attributes) (FileID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if attr.Service == 0 {
		attr.Service = fit.ServiceBasic
	}
	if attr.Created.IsZero() {
		attr.Created = time.Now()
	}
	attr.Size = 0
	attr.RefCount = 0

	disk := s.pickDisk(1 + FragmentsPerBlock)
	if disk < 0 {
		return 0, ErrNoSpace
	}
	// Try FIT + first data block in one contiguous claim.
	fitAddr, reserved := -1, -1
	if addr, err := s.disks[disk].AllocateFragments(1 + FragmentsPerBlock); err == nil {
		fitAddr, reserved = addr, addr+1
	} else {
		addr, err := s.disks[disk].AllocateFragments(1)
		if err != nil {
			return 0, fmt.Errorf("fileservice: allocating FIT: %w", err)
		}
		fitAddr = addr
	}

	// Vital writes, in order: the ID reservation when this ID is the first
	// beyond it, the FIT, then the one map fragment that gains the entry. A
	// crash before the last leaves an unreferenced FIT, reclaimed at mount.
	if s.nextID >= s.reservedID {
		s.reservedID = s.nextID + idReserve
		if err := s.putMapFragLocked(s.mapFrags, 0); err != nil {
			s.reservedID = s.nextID
			return 0, err
		}
	}
	id := s.nextID
	s.nextID++
	st := &fileState{
		id: id, fitDisk: disk, fitAddr: fitAddr,
		attr: attr, extents: fit.NewExtentMap(nil), reservedAddr: reserved,
		loaded: true,
	}
	s.fileMap[id] = mapEntry{fitLocation: fitLocation{Disk: uint16(disk), Addr: uint32(fitAddr)}}
	err := s.writeFIT(st, false)
	if err == nil {
		err = s.mapInsertLocked(id)
	}
	if err != nil {
		delete(s.fileMap, id)
		return 0, err
	}
	s.files[id] = st
	return id, nil
}

// Open increments the file's reference count, loading its FIT if needed.
func (s *Service) Open(id FileID) error {
	st, err := s.lockFile(id)
	if err != nil {
		return err
	}
	defer st.mu.Unlock()
	st.refCount++
	st.attr.RefCount = uint32(st.refCount)
	return nil
}

// Close decrements the reference count and, at zero, flushes the file's
// dirty blocks and writes its FIT if a vital field changed. A read's
// last-read stamp stays in memory (see fileState.attrDirty), so a Close
// after reads alone writes nothing.
func (s *Service) Close(id FileID) error {
	st, err := s.lockFile(id)
	if err != nil {
		return err
	}
	defer st.mu.Unlock()
	if st.refCount == 0 {
		return fmt.Errorf("%w: file %d", ErrNotOpen, id)
	}
	st.refCount--
	st.attr.RefCount = uint32(st.refCount)
	if st.refCount == 0 {
		return s.flushFile(st)
	}
	return nil
}

// Delete removes a file, freeing its data blocks, indirect blocks and FIT.
// Open files cannot be deleted.
func (s *Service) Delete(id FileID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	st, ok := s.files[id]
	if !ok {
		loc, mapped := s.fileMap[id]
		if !mapped {
			return fmt.Errorf("%w: id %d", ErrNotFound, id)
		}
		st = newFileState(id, loc.fitLocation)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.gone {
		return fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	if !st.loaded {
		if err := s.loadFIT(st); err != nil {
			return err
		}
		st.loaded = true
	}
	if st.refCount > 0 {
		return fmt.Errorf("%w: file %d has %d openers", ErrFileBusy, id, st.refCount)
	}
	// Unlink first — one vital write, of the map fragment that loses the
	// entry: a crash between the unlink and the frees leaks blocks (reclaimed
	// by the next mount-time rebuild) instead of letting a stale map entry
	// reference reallocated blocks.
	if err := s.mapRemoveLocked(id); err != nil {
		return err
	}
	delete(s.files, id)
	st.gone = true
	for _, e := range st.extents.Extents() {
		if err := s.disks[e.Disk].Free(int(e.Addr), int(e.Count)*FragmentsPerBlock); err != nil {
			return fmt.Errorf("fileservice: freeing data extent: %w", err)
		}
		s.invalidateExtent(e)
	}
	for _, e := range st.indirect {
		if err := s.disks[e.Disk].Free(int(e.Addr), FragmentsPerBlock); err != nil {
			return fmt.Errorf("fileservice: freeing indirect block: %w", err)
		}
	}
	if st.reservedAddr >= 0 {
		if err := s.disks[st.fitDisk].Free(st.reservedAddr, FragmentsPerBlock); err != nil {
			return fmt.Errorf("fileservice: freeing reserved block: %w", err)
		}
	}
	if err := s.disks[st.fitDisk].Free(st.fitAddr, 1); err != nil {
		return fmt.Errorf("fileservice: freeing FIT: %w", err)
	}
	return nil
}

// invalidateExtent drops an extent's blocks from the block cache.
func (s *Service) invalidateExtent(e fit.Extent) {
	for b := 0; b < int(e.Count); b++ {
		s.blockCache.Invalidate(blockKey{disk: int(e.Disk), addr: int(e.Addr) + b*FragmentsPerBlock})
	}
}

// Attributes returns the file's attributes.
func (s *Service) Attributes(id FileID) (fit.Attributes, error) {
	st, err := s.lockFile(id)
	if err != nil {
		return fit.Attributes{}, err
	}
	defer st.mu.Unlock()
	return st.attr, nil
}

// SetService records which service's semantics currently govern the file.
// The transaction service flips it per use (§2.2), which outlives no crash,
// so it is persisted lazily: with the next FIT write for any reason.
func (s *Service) SetService(id FileID, t fit.ServiceType) error {
	st, err := s.lockFile(id)
	if err != nil {
		return err
	}
	defer st.mu.Unlock()
	st.attr.Service = t
	st.attrDirty = true
	return nil
}

// Size returns the file size in bytes.
func (s *Service) Size(id FileID) (int64, error) {
	attr, err := s.Attributes(id)
	if err != nil {
		return 0, err
	}
	return int64(attr.Size), nil
}

// List returns the IDs of every file known to the service, in ascending
// order (fsck and tooling).
func (s *Service) List() ([]FileID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	out := make([]FileID, 0, len(s.fileMap))
	for id := range s.fileMap {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Extents returns the file's extent list in logical order (used by the
// transaction service's contiguity check, §6.7).
func (s *Service) Extents(id FileID) ([]fit.Extent, error) {
	st, err := s.lockFile(id)
	if err != nil {
		return nil, err
	}
	defer st.mu.Unlock()
	out := make([]fit.Extent, len(st.extents.Extents()))
	copy(out, st.extents.Extents())
	return out, nil
}

// FITLocation returns where the file's index table lives (diagnostics and
// experiment E11).
func (s *Service) FITLocation(id FileID) (disk, addr int, err error) {
	st, err := s.lockFile(id)
	if err != nil {
		return 0, 0, err
	}
	defer st.mu.Unlock()
	return st.fitDisk, st.fitAddr, nil
}

// Flush writes back all dirty state: dirty data blocks, dirty FITs, and the
// file map. Dirty blocks bound for different disks are written back in
// parallel, one writeback stream per disk.
func (s *Service) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushAllLocked()
}

func (s *Service) flushAllLocked() error {
	if err := s.flushCacheLocked(); err != nil {
		return err
	}
	for _, st := range s.files {
		st.mu.Lock()
		var err error
		if st.loaded && (st.fitDirty || st.attrDirty) {
			err = s.writeFIT(st, false)
		}
		st.mu.Unlock()
		if err != nil {
			return err
		}
	}
	if err := s.persistMapLocked(); err != nil {
		return err
	}
	return s.flushDisksLocked()
}

// flushCacheLocked writes back every dirty cached block.
func (s *Service) flushCacheLocked() error {
	return s.flushKeys(s.blockCache.DirtyKeys())
}

// flushKeys flushes the given cache keys. Keys that share a disk — the whole
// list, for a record write or a file on one disk — are flushed in order on
// the calling goroutine and nothing is allocated; keys on several disks go
// out as one in-order stream per disk, the streams in parallel. On error the
// first failure in disk order is returned.
func (s *Service) flushKeys(keys []blockKey) error {
	oneDisk := true
	for _, k := range keys {
		if k.disk != keys[0].disk {
			oneDisk = false
			break
		}
	}
	if oneDisk {
		for _, k := range keys {
			if err := s.blockCache.FlushKey(k); err != nil {
				return err
			}
		}
		return nil
	}
	byDisk := make([][]blockKey, len(s.disks))
	for _, k := range keys {
		byDisk[k.disk] = append(byDisk[k.disk], k)
	}
	var tasks []func() error
	for _, g := range byDisk {
		if len(g) == 0 {
			continue
		}
		tasks = append(tasks, func() error {
			for _, k := range g {
				if err := s.blockCache.FlushKey(k); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return simclock.Fanout(s.overlap, tasks)
}

// flushDisksLocked issues flush-block to every disk server, in parallel.
func (s *Service) flushDisksLocked() error {
	tasks := make([]func() error, len(s.disks))
	for i, d := range s.disks {
		tasks[i] = d.Flush
	}
	return simclock.Fanout(s.overlap, tasks)
}

// flushFile flushes one file's dirty blocks (per-disk parallel) and FIT.
// Callers must hold st.mu.
func (s *Service) flushFile(st *fileState) error {
	keys := st.keyBuf[:0]
	for _, e := range st.extents.Extents() {
		for b := 0; b < int(e.Count); b++ {
			keys = append(keys, blockKey{disk: int(e.Disk), addr: int(e.Addr) + b*FragmentsPerBlock})
		}
	}
	st.keyBuf = keys
	if err := s.flushKeys(keys); err != nil {
		return err
	}
	if st.fitDirty {
		return s.writeFIT(st, false)
	}
	return nil
}

// Shutdown flushes everything and closes the service.
func (s *Service) Shutdown() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	// A clean remount continues at exactly the next ID.
	s.reservedID = s.nextID
	if err := s.flushAllLocked(); err != nil {
		return err
	}
	s.closed = true
	return nil
}

// InvalidateCaches drops the service block cache (experiments use this to
// force cold reads).
func (s *Service) InvalidateCaches() {
	s.blockCache.InvalidateAll()
	for _, d := range s.disks {
		d.InvalidateCache()
	}
}

// DropFITCache evicts in-memory FIT state for closed files, forcing the next
// access to reload the table from disk (experiments; cold-start behaviour).
// A table whose only unwritten change is a lazily persisted attribute is
// written first, so the stamp outlives the state. Files whose lock is
// currently held, or with an unwritten vital change, are left alone.
func (s *Service) DropFITCache() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, st := range s.files {
		if !st.mu.TryLock() {
			continue
		}
		if st.loaded && st.refCount == 0 && !st.fitDirty && (!st.attrDirty || s.writeFIT(st, false) == nil) {
			st.gone = true
			delete(s.files, id)
		}
		st.mu.Unlock()
	}
}

// pickDisk returns the disk with the most free space that can hold n
// fragments, or -1. Free-space queries are answered from each disk's
// internally synchronized allocator, so no service lock is needed.
func (s *Service) pickDisk(n int) int {
	best, bestFree := -1, -1
	for i, d := range s.disks {
		free := d.FreeFragments()
		if free >= n && free > bestFree {
			best, bestFree = i, free
		}
	}
	return best
}

// loadFIT reads and decodes the FIT at st's location into st (one disk
// reference), falling back to the stable copy if the main copy is corrupt,
// then loads any indirect blocks. Callers must hold st.mu (or have exclusive
// access to st).
func (s *Service) loadFIT(st *fileState) error {
	srv := s.disks[st.fitDisk]
	raw, err := Get(context.Background(), srv, st.fitAddr, 1, diskservice.GetOptions{})
	var tbl *fit.Table
	if err == nil {
		tbl, err = fit.Decode(raw)
	}
	if err != nil {
		// Vital structure: recover from the stable copy.
		raw, serr := Get(context.Background(), srv, st.fitAddr, 1, diskservice.GetOptions{FromStable: true})
		if serr != nil {
			return fmt.Errorf("fileservice: FIT of file %d unreadable: %v; stable: %w", st.id, err, serr)
		}
		tbl, serr = fit.Decode(raw)
		if serr != nil {
			return fmt.Errorf("fileservice: FIT of file %d corrupt on both copies: %w", st.id, serr)
		}
		// Heal the main copy.
		if herr := srv.Put(context.Background(), st.fitAddr, raw, diskservice.PutOptions{}); herr != nil {
			return fmt.Errorf("fileservice: healing FIT of file %d: %w", st.id, herr)
		}
	}
	extents := append([]fit.Extent(nil), tbl.Direct...)
	for _, ind := range tbl.Indirect {
		blk, err := Get(context.Background(), s.disks[ind.Disk], int(ind.Addr), FragmentsPerBlock, diskservice.GetOptions{})
		if err != nil {
			return fmt.Errorf("fileservice: reading indirect block of file %d: %w", st.id, err)
		}
		more, err := fit.DecodeIndirect(blk)
		if err != nil {
			return fmt.Errorf("fileservice: indirect block of file %d: %w", st.id, err)
		}
		extents = append(extents, more...)
	}
	st.attr = tbl.Attr
	st.extents = fit.NewExtentMap(extents)
	st.indirect = append([]fit.Extent(nil), tbl.Indirect...)
	st.reservedAddr = -1
	st.refCount = 0
	st.attr.RefCount = 0
	return nil
}

// fitBufs recycles writeFIT's one-fragment encode buffers.
var fitBufs = sync.Pool{New: func() any {
	b := make([]byte, FragmentSize)
	return &b
}}

// writeFIT encodes and persists the FIT to its original location and
// stable storage (§4's put-block file-index-table flavour), rewriting
// indirect blocks as needed. waitStable selects synchronous stable writes.
// Callers must hold st.mu (or have exclusive access to st).
func (s *Service) writeFIT(st *fileState, waitStable bool) error {
	direct, overflow := st.extents.Split()
	// Rewrite indirect blocks. Free any beyond what is needed now.
	var needed int
	if len(overflow) > 0 {
		needed = (len(overflow) + fit.ExtentsPerIndirectBlock - 1) / fit.ExtentsPerIndirectBlock
	}
	if needed > fit.MaxIndirectPtrs {
		return fmt.Errorf("fileservice: file %d exceeds maximum indirect capacity", st.id)
	}
	for len(st.indirect) > needed {
		last := st.indirect[len(st.indirect)-1]
		if err := s.disks[last.Disk].Free(int(last.Addr), FragmentsPerBlock); err != nil {
			return err
		}
		st.indirect = st.indirect[:len(st.indirect)-1]
	}
	for len(st.indirect) < needed {
		disk := s.pickDisk(FragmentsPerBlock)
		if disk < 0 {
			return ErrNoSpace
		}
		addr, err := s.disks[disk].AllocateBlocks(1)
		if err != nil {
			return fmt.Errorf("fileservice: allocating indirect block: %w", err)
		}
		st.indirect = append(st.indirect, fit.Extent{Disk: uint16(disk), Addr: uint32(addr), Count: 1})
	}
	for i := 0; i < needed; i++ {
		lo := i * fit.ExtentsPerIndirectBlock
		hi := lo + fit.ExtentsPerIndirectBlock
		if hi > len(overflow) {
			hi = len(overflow)
		}
		blk, err := fit.EncodeIndirect(overflow[lo:hi])
		if err != nil {
			return err
		}
		ind := st.indirect[i]
		if err := s.disks[ind.Disk].Put(context.Background(), int(ind.Addr), blk, diskservice.PutOptions{
			Stability: diskservice.MainAndStable, WaitStable: waitStable,
		}); err != nil {
			return err
		}
	}
	tbl := fit.Table{Attr: st.attr, Direct: direct, Indirect: st.indirect}
	// Put is lent its data as a cache writeback is (it copies what it keeps),
	// so the encode buffer goes back for the next table.
	bp := fitBufs.Get().(*[]byte)
	defer fitBufs.Put(bp)
	raw := *bp
	if err := tbl.EncodeInto(raw); err != nil {
		return err
	}
	if err := s.disks[st.fitDisk].Put(context.Background(), st.fitAddr, raw, diskservice.PutOptions{
		Stability: diskservice.MainAndStable, WaitStable: waitStable,
	}); err != nil {
		return err
	}
	st.fitDirty, st.attrDirty = false, false
	return nil
}
