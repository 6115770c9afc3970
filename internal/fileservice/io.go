package fileservice

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/diskservice"
	"repro/internal/fit"
	"repro/internal/obs"
	"repro/internal/simclock"
)

// ReadAtCtx reads up to n bytes starting at byte offset off, returning fewer
// bytes at end of file (and zero bytes, no error, at or past it).
//
// The read path is the paper's: locate the block through the (cached) file
// index table, then move what is missing with one get-block per physically
// contiguous stretch (§5). How much one miss moves depends on whether the
// access continues a sequential stream on the file (fileState.sequential):
//
//   - It does, or it starts at block 0, where every reader starts: the fetch
//     is the whole contiguous run the missed block starts — up to
//     MaxSingleFetchBlocks (64 blocks, 512 KB) — and every block of it is
//     cached, so the requests that follow on the run cost no disk reference;
//     the disk service's track read-ahead is on (§4).
//   - It does not: the fetch is the blocks this request covers, still one
//     reference per contiguous stretch, and track read-ahead is off. A
//     random 4 KB read moves one block, not a run that would displace a
//     quarter of the default cache for bytes nobody asked for.
//
// The stream cursors are kept per file, not per client: the server is nearly
// stateless (§2) and knows no client identity below the lease manager, and a
// few cursors per file keep several sequential readers of one file apart as
// well as per-client state would. Misses are planned first, then the fetches
// fan out with one goroutine per disk, so a striped read drives all its
// disks concurrently.
//
// The read is bracketed by a fileservice-layer span (nested under the
// caller's when ctx has one) and its disk fetches contribute
// diskservice/device child spans.
func (s *Service) ReadAtCtx(ctx context.Context, id FileID, off int64, n int) ([]byte, error) {
	return s.ReadAtHeadroomCtx(ctx, id, off, n, 0)
}

// ReadAtHeadroomCtx is ReadAtCtx returning the bytes read behind headroom
// bytes left zero for the caller to fill — the one buffer of a reply that
// frames the data with a header, read into where it is sent from instead of
// copied there. With headroom 0 it is ReadAtCtx; with more, a read at or past
// end of file returns the headroom alone.
func (s *Service) ReadAtHeadroomCtx(ctx context.Context, id FileID, off int64, n, headroom int) ([]byte, error) {
	ctx, op := s.obsRec.StartOp(ctx, obs.LayerFileService, "readAt")
	op.SetFile(uint64(id))
	out, err := s.readAt(ctx, id, off, n, headroom)
	if err == nil {
		op.AddBytes(len(out) - headroom)
	}
	op.End(err)
	return out, err
}

func (s *Service) readAt(ctx context.Context, id FileID, off int64, n, headroom int) ([]byte, error) {
	if off < 0 {
		return nil, ErrBadOffset
	}
	if n < 0 {
		return nil, fmt.Errorf("%w: negative length", ErrBadRequest)
	}
	st, err := s.lockFile(id)
	if err != nil {
		return nil, err
	}
	defer st.mu.Unlock()
	size := int64(st.attr.Size)
	if off >= size {
		if headroom == 0 {
			return nil, nil
		}
		return make([]byte, headroom), nil
	}
	// Compared as n > size-off: off+n wraps for a peer-supplied n near
	// MaxInt64 and would skip the clamp.
	if int64(n) > size-off {
		n = int(size - off)
	}
	out := make([]byte, headroom+n)
	if err := s.readStamped(ctx, st, out[headroom:], off); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadAtInto is ReadAtCtx reading into the caller's buf: it fills buf with
// the file's bytes from off and returns how many it read, fewer at end of
// file (and zero, no error, at or past it). The transaction service reads a
// view straight into the slice it returns.
func (s *Service) ReadAtInto(ctx context.Context, id FileID, off int64, buf []byte) (int, error) {
	ctx, op := s.obsRec.StartOp(ctx, obs.LayerFileService, "readAt")
	op.SetFile(uint64(id))
	n, err := s.readAtInto(ctx, id, off, buf)
	op.AddBytes(n)
	op.End(err)
	return n, err
}

func (s *Service) readAtInto(ctx context.Context, id FileID, off int64, buf []byte) (int, error) {
	if off < 0 {
		return 0, ErrBadOffset
	}
	st, err := s.lockFile(id)
	if err != nil {
		return 0, err
	}
	defer st.mu.Unlock()
	size := int64(st.attr.Size)
	if off >= size {
		return 0, nil
	}
	if int64(len(buf)) > size-off {
		buf = buf[:size-off]
	}
	if err := s.readStamped(ctx, st, buf, off); err != nil {
		return 0, err
	}
	return len(buf), nil
}

// readStamped fills out with the file's bytes from off and stamps the
// file's last read. Callers must hold st.mu.
func (s *Service) readStamped(ctx context.Context, st *fileState, out []byte, off int64) error {
	if err := s.readInto(ctx, st, out, off); err != nil {
		return err
	}
	st.attr.LastRead = time.Now()
	st.attrDirty = true
	return nil
}

// fetchTask is one contiguous-run disk fetch: run blocks from addr on disk,
// of which the blocks in cached are in the block cache (see planRun). seq
// says the access continues a stream (see fetchRun).
type fetchTask struct {
	disk, addr, run int
	cached          uint64
	seq             bool
}

// fetchSpan names bytes to copy out of one block of a planned fetch.
type fetchSpan struct {
	task     int // index of the fetch in the plan
	outOff   int // destination offset in the caller's buffer
	blk      int // block index within the fetch's run
	from, to int // byte range within that block
}

// pendingRef locates a block inside an already planned fetch.
type pendingRef struct {
	task, blk int
}

// sequential records an access to blocks first through last of the file and
// reports whether it continues a sequential stream: it starts at block 0,
// where every reader starts, or in the block a recent access ended in (a
// reader whose requests are smaller than a block) or the one after it. Hits
// advance the cursors as misses do, so a reader stays sequential across the
// blocks an earlier run fetch left cached. Callers must hold st.mu.
func (st *fileState) sequential(first, last int) bool {
	seq := first == 0
	slot := len(st.next) - 1 // no stream continued: the oldest cursor goes
	for i, n := range st.next {
		if first == n || first == n-1 {
			seq, slot = true, i
			break
		}
	}
	copy(st.next[1:slot+1], st.next[:slot])
	st.next[0] = last + 1
	return seq
}

// readInto fills out with the file's bytes starting at off. It walks the
// extent map once, serving cached blocks immediately and planning one fetch
// per uncovered contiguous run — the whole run when the access continues a
// stream, else no further than the request's last block — then executes the
// fetches grouped per disk. The plan is values in slices that start in
// arrays on this stack: a read that misses in one block plans one fetch and
// one span and allocates neither. Callers must hold st.mu.
func (s *Service) readInto(ctx context.Context, st *fileState, out []byte, off int64) error {
	if len(out) == 0 {
		return nil
	}
	lastBlk := int((off + int64(len(out)) - 1) / BlockSize)
	seq := st.sequential(int(off/BlockSize), lastBlk)
	var taskBuf [1]fetchTask
	var spanBuf [1]fetchSpan
	tasks, spans := taskBuf[:0], spanBuf[:0]
	var pending map[blockKey]pendingRef
	covered := 0
	for covered < len(out) {
		pos := off + int64(covered)
		blk := int(pos / BlockSize)
		within := int(pos % BlockSize)
		chunk := BlockSize - within
		if chunk > len(out)-covered {
			chunk = len(out) - covered
		}
		disk, addr, contiguous, ok := st.extents.Lookup(blk)
		if !ok {
			return fmt.Errorf("%w: file %d has no block %d", ErrBadRequest, st.id, blk)
		}
		key := blockKey{disk: int(disk), addr: int(addr)}
		if ref, ok := pending[key]; ok {
			// Already part of a planned run fetch; serving it from that run
			// is the cache hit the block-at-a-time path would have scored.
			spans = append(spans, fetchSpan{ref.task, covered, ref.blk, within, within + chunk})
			s.met.cacheHit.Inc()
		} else if !s.blockCache.ReadRange(key, within, out[covered:covered+chunk]) {
			if !seq && contiguous > lastBlk-blk+1 {
				contiguous = lastBlk - blk + 1
			}
			run, cached := s.planRun(int(disk), int(addr), contiguous)
			tasks = append(tasks, fetchTask{disk: int(disk), addr: int(addr), run: run, cached: cached, seq: seq})
			spans = append(spans, fetchSpan{len(tasks) - 1, covered, 0, within, within + chunk})
			// Only the request's later blocks can land in this run: a miss in
			// its last block — every small random read — indexes nothing.
			if blk < lastBlk {
				if pending == nil {
					pending = make(map[blockKey]pendingRef)
				}
				for b := 0; b < run; b++ {
					if cached&(1<<b) == 0 {
						pending[blockKey{disk: int(disk), addr: int(addr) + b*FragmentsPerBlock}] = pendingRef{len(tasks) - 1, b}
					}
				}
			}
		}
		covered += chunk
	}
	return s.runFetches(ctx, out, tasks, spans)
}

// runFetches executes the planned fetches: tasks for the same disk run in
// order on one goroutine (deterministic head movement), tasks for different
// disks run concurrently.
func (s *Service) runFetches(ctx context.Context, out []byte, tasks []fetchTask, spans []fetchSpan) error {
	if len(tasks) == 0 {
		return nil
	}
	if len(tasks) == 1 {
		return s.fetch(ctx, out, 0, tasks[0], spans)
	}
	byDisk := make(map[int][]int)
	var order []int
	for i, t := range tasks {
		if _, ok := byDisk[t.disk]; !ok {
			order = append(order, t.disk)
		}
		byDisk[t.disk] = append(byDisk[t.disk], i)
	}
	if len(order) == 1 {
		for i, t := range tasks {
			if err := s.fetch(ctx, out, i, t, spans); err != nil {
				return err
			}
		}
		return nil
	}
	// The per-disk tasks get their own copy of the plan, which may live on
	// readInto's stack.
	plan, planSpans := slices.Clone(tasks), slices.Clone(spans)
	perDisk := make([]func() error, len(order))
	for i, d := range order {
		group := byDisk[d]
		perDisk[i] = func() error {
			for _, ti := range group {
				if err := s.fetch(ctx, out, ti, plan[ti], planSpans); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return simclock.Fanout(s.overlap, perDisk)
}

// planRun sizes the single-reference fetch for a miss on the block at addr,
// the first of contiguous blocks on disk, and reports as a bit mask which of
// the run's other blocks are cached right now. A cached block may be dirty —
// newer than the disk — so the fetch must neither serve nor install the image
// it reads of it; the file's lock keeps the mask valid until the fetch (a
// block can leave the cache meanwhile, written back first, but not enter).
func (s *Service) planRun(disk, addr, contiguous int) (run int, cached uint64) {
	run = contiguous
	if run > MaxSingleFetchBlocks {
		run = MaxSingleFetchBlocks
	}
	for b := 1; b < run; b++ {
		if s.blockCache.Contains(blockKey{disk: disk, addr: addr + b*FragmentsPerBlock}) {
			cached |= 1 << b
		}
	}
	return run, cached
}

// fetchRun reads a planned run with a single disk reference straight into
// the buffer the block cache keeps (Cache.Fill) and installs every block of
// it that was not cached at planning time (cached): the blocks in dirty as
// dirty, the rest clean. use runs on the run's bytes after the read and
// before the install, while the buffer is still the fetch's alone: it copies
// out what the caller needs — so an eviction racing the install can never
// recycle bytes still to be read — and may patch the blocks it marks dirty.
// seq says the access continues a stream: only then is the rest of the track
// worth the disk service's read-ahead (§4).
func (s *Service) fetchRun(ctx context.Context, disk, addr, run int, cached, dirty uint64, seq bool, use func(raw []byte)) error {
	var keys [MaxSingleFetchBlocks]blockKey
	for b := 0; b < run; b++ {
		keys[b] = blockKey{disk: disk, addr: addr + b*FragmentsPerBlock}
	}
	installed, err := s.blockCache.Fill(keys[:run], BlockSize, cached, dirty, func(raw []byte) error {
		err := s.disks[disk].GetInto(ctx, addr, run*FragmentsPerBlock, raw, diskservice.GetOptions{NoReadAhead: !seq})
		if err == nil {
			use(raw)
		}
		return err
	})
	if err != nil {
		return err
	}
	if seq {
		s.met.stream.Inc()
		s.met.streamBlocks.Add(int64(installed))
	} else {
		s.met.demand.Inc()
		s.met.demandBlocks.Add(int64(installed))
	}
	return nil
}

// fetch executes planned fetch ti and copies the spans that name it out of
// the run into the caller's buffer, before the run's blocks are installed.
func (s *Service) fetch(ctx context.Context, out []byte, ti int, t fetchTask, spans []fetchSpan) error {
	return s.fetchRun(ctx, t.disk, t.addr, t.run, t.cached, 0, t.seq, func(raw []byte) {
		for _, sp := range spans {
			if sp.task == ti {
				copy(out[sp.outOff:], raw[sp.blk*BlockSize+sp.from:sp.blk*BlockSize+sp.to])
			}
		}
	})
}

// block returns logical block blk of the file, from cache or from disk — the
// serial single-block path used for page-granular access. A miss fetches the
// block's contiguous run when the access continues a stream and the block
// alone otherwise (see ReadAt). Callers must hold st.mu.
func (s *Service) block(ctx context.Context, st *fileState, blk int) ([]byte, error) {
	disk, addr, contiguous, ok := st.extents.Lookup(blk)
	if !ok {
		return nil, fmt.Errorf("%w: file %d has no block %d", ErrBadRequest, st.id, blk)
	}
	seq := st.sequential(blk, blk)
	key := blockKey{disk: int(disk), addr: int(addr)}
	if data, ok := s.blockCache.Get(key); ok {
		return data, nil
	}
	out := make([]byte, BlockSize)
	if err := s.fetchBlock(ctx, key, contiguous, seq, 0, func(raw []byte) { copy(out, raw) }); err != nil {
		return nil, err
	}
	return out, nil
}

// fetchBlock is the single-block miss path: the caller has looked key up,
// counted the miss and recorded the access (seq is fileState.sequential's
// answer). It fetches the block — with its contiguous run on a stream — and
// installs it, dirty when dirty is 1, after use has seen the run (fetchRun).
func (s *Service) fetchBlock(ctx context.Context, key blockKey, contiguous int, seq bool, dirty uint64, use func(raw []byte)) error {
	if !seq {
		contiguous = 1
	}
	run, cached := s.planRun(key.disk, key.addr, contiguous)
	return s.fetchRun(ctx, key.disk, key.addr, run, cached, dirty, seq, use)
}

// Run is one contiguous byte range of a write: Data at byte offset Off. A
// commit's record intentions and a client cache's write-back both reach the
// file service as one file's runs.
type Run struct {
	Off  int64
	Data []byte
}

// WriteAtCtx writes data at byte offset off, extending the file as needed, and
// returns the number of bytes written: WriteRuns with one run.
func (s *Service) WriteAtCtx(ctx context.Context, id FileID, off int64, data []byte) (int, error) {
	run := [1]Run{{Off: off, Data: data}}
	return s.writeRuns(ctx, "writeAt", id, run[:])
}

// WriteRuns writes the runs into the file in order, extending it as needed,
// and returns the number of bytes written; where runs overlap the later one
// wins. Modifications follow the file's policy: delayed-write for basic
// files, write-through for transaction files (§5). Every run is patched into
// the cached blocks under one hold of the file's lock; a write-through file
// then flushes each block the runs touched once — blocks bound for different
// disks in parallel, one writeback stream per disk — and writes its FIT at
// most once, only when a vital field changed. That is the in-place pass of
// a commit over one file's record intentions (§6.7).
func (s *Service) WriteRuns(ctx context.Context, id FileID, runs []Run) (int, error) {
	return s.writeRuns(ctx, "writeRuns", id, runs)
}

// writeRuns brackets one write as the fileservice-layer op name.
func (s *Service) writeRuns(ctx context.Context, name string, id FileID, runs []Run) (int, error) {
	ctx, op := s.obsRec.StartOp(ctx, obs.LayerFileService, name)
	op.SetFile(uint64(id))
	written, err := s.write(ctx, id, runs)
	op.AddBytes(written)
	op.End(err)
	return written, err
}

func (s *Service) write(ctx context.Context, id FileID, runs []Run) (int, error) {
	empty := true
	for _, r := range runs {
		if r.Off < 0 {
			return 0, ErrBadOffset
		}
		empty = empty && len(r.Data) == 0
	}
	if empty {
		return 0, nil
	}
	st, err := s.lockFile(id)
	if err != nil {
		return 0, err
	}
	defer st.mu.Unlock()
	writeThrough := st.attr.Service == fit.ServiceTransaction
	var wtBuf [4]blockKey // a record commit touches a block or two
	wtKeys := wtBuf[:0]
	// size is the file's end as the runs so far leave it; the FIT takes it
	// once they are all in.
	size, grew, written := int64(st.attr.Size), false, 0
	for _, r := range runs {
		if len(r.Data) == 0 {
			continue
		}
		end := r.Off + int64(len(r.Data))
		needBlocks := int((end + BlockSize - 1) / BlockSize)
		oldBlocks := st.extents.TotalBlocks()
		grew = grew || oldBlocks < needBlocks
		if err := s.grow(st, needBlocks); err != nil {
			return written, err
		}
		// Zero-fill hole blocks between the old end and the run's first
		// block: allocation may hand back blocks with stale contents from
		// freed files.
		if startBlk := int(r.Off / BlockSize); startBlk > oldBlocks {
			if err := s.zeroFill(st, oldBlocks, startBlk); err != nil {
				return written, err
			}
		}
		for done := 0; done < len(r.Data); {
			pos := r.Off + int64(done)
			blk := int(pos / BlockSize)
			within := int(pos % BlockSize)
			chunk := min(BlockSize-within, len(r.Data)-done)
			disk, addr, contiguous, ok := st.extents.Lookup(blk)
			if !ok {
				return written, fmt.Errorf("%w: block %d missing after grow", ErrBadRequest, blk)
			}
			key := blockKey{disk: int(disk), addr: int(addr)}
			src := r.Data[done : done+chunk]
			if chunk == BlockSize {
				err = s.blockCache.Put(key, src, true)
			} else {
				err = s.writePartial(ctx, st, blk, key, contiguous, within, src, size)
			}
			if err != nil {
				return written, err
			}
			if writeThrough && !slices.Contains(wtKeys, key) {
				wtKeys = append(wtKeys, key)
			}
			done += chunk
			written += chunk
		}
		size = max(size, end)
	}
	if err := s.flushKeys(wtKeys); err != nil {
		return written, err
	}
	if uint64(size) > st.attr.Size {
		st.attr.Size = uint64(size)
		st.fitDirty = true
	}
	if st.fitDirty && (writeThrough || grew) {
		// Vital changes are written through here: structural ones (new
		// extents) for every file, so the mount-time bitmap rebuild can trust
		// on-disk FITs, and a transaction file's size. The lazily persisted
		// attributes ride along.
		if err := s.writeFIT(st, false); err != nil {
			return written, err
		}
	}
	return written, nil
}

// writePartial writes src at byte within of logical block blk, which key
// names, leaving the block dirty in the cache. A cached block takes the bytes
// in place — a write-through file's whole block is written back by write
// before it acknowledges; a block at or beyond size, the file's end so far,
// is fresh and starts zeroed; any other is read into the buffer the cache
// keeps, patched there before it is installed, and installed dirty. Callers
// must hold st.mu.
func (s *Service) writePartial(ctx context.Context, st *fileState, blk int, key blockKey, contiguous, within int, src []byte, size int64) error {
	if int64(blk)*BlockSize >= size {
		buf := make([]byte, BlockSize)
		copy(buf[within:], src)
		return s.blockCache.Put(key, buf, true)
	}
	seq := st.sequential(blk, blk)
	if s.blockCache.WriteRange(key, within, src) {
		return nil
	}
	return s.fetchBlock(ctx, key, contiguous, seq, 1, func(raw []byte) { copy(raw[within:], src) })
}

// grow extends the file's extent map to cover needBlocks logical blocks,
// allocating per the striping policy. Callers must hold st.mu; allocation
// goes through each disk's internally synchronized allocator, so the
// structural lock is not needed.
func (s *Service) grow(st *fileState, needBlocks int) error {
	missing := needBlocks - st.extents.TotalBlocks()
	if missing <= 0 {
		return nil
	}
	// Consume the block reserved adjacent to the FIT first (§5: the FIT and
	// at least the first data block are always contiguous).
	if st.reservedAddr >= 0 && st.extents.TotalBlocks() == 0 {
		st.extents.Append(fit.Extent{Disk: uint16(st.fitDisk), Addr: uint32(st.reservedAddr), Count: 1})
		st.reservedAddr = -1
		st.fitDirty = true
		missing--
	}
	for missing > 0 {
		var n int
		var err error
		if s.stripe == Spread {
			n, err = s.growSpread(st, missing)
		} else {
			n, err = s.growLocality(st, missing)
		}
		if err != nil {
			return err
		}
		missing -= n
		st.fitDirty = true
	}
	return nil
}

// growLocality allocates up to `missing` blocks as one run as close as
// possible to the file's existing data (or its FIT), returning how many
// blocks it added.
func (s *Service) growLocality(st *fileState, missing int) (int, error) {
	want := missing
	if want > fit.MaxCount {
		want = fit.MaxCount
	}
	// Prefer the disk the file already lives on, at the address right after
	// its last extent.
	disk := st.fitDisk
	hint := st.fitAddr + 1
	if exts := st.extents.Extents(); len(exts) > 0 {
		last := exts[len(exts)-1]
		disk = int(last.Disk)
		hint = int(last.Addr) + int(last.Count)*FragmentsPerBlock
	}
	for n := want; n > 0; n /= 2 {
		if addr, err := s.disks[disk].AllocateBlocksNear(hint, n); err == nil {
			st.extents.Append(fit.Extent{Disk: uint16(disk), Addr: uint32(addr), Count: uint16(n)})
			return n, nil
		}
		// Halve the run and retry; below a threshold, try other disks.
		if n == 1 {
			break
		}
	}
	// The home disk is out of (contiguous) space: take the emptiest disk.
	for tries := 0; tries < len(s.disks); tries++ {
		d := s.pickDisk(FragmentsPerBlock)
		if d < 0 {
			return 0, ErrNoSpace
		}
		for n := want; n > 0; n /= 2 {
			if addr, err := s.disks[d].AllocateBlocks(n); err == nil {
				st.extents.Append(fit.Extent{Disk: uint16(d), Addr: uint32(addr), Count: uint16(n)})
				return n, nil
			}
		}
		// pickDisk returned a disk with free-but-fragmented space and not
		// even one block fits; no other disk will be returned that could do
		// better, so give up.
		break
	}
	return 0, ErrNoSpace
}

// growSpread allocates one stripe unit on the next disk in round-robin
// order, returning how many blocks it added. The round-robin cursor is a
// service-wide atomic so files growing concurrently interleave without
// contending on a lock.
func (s *Service) growSpread(st *fileState, missing int) (int, error) {
	want := missing
	if want > s.stripeUnit {
		want = s.stripeUnit
	}
	for tries := 0; tries < len(s.disks); tries++ {
		d := int((s.nextStripe.Add(1) - 1) % uint32(len(s.disks)))
		for n := want; n > 0; n /= 2 {
			if addr, err := s.disks[d].AllocateBlocks(n); err == nil {
				st.extents.Append(fit.Extent{Disk: uint16(d), Addr: uint32(addr), Count: uint16(n)})
				return n, nil
			}
		}
	}
	return 0, ErrNoSpace
}

// zeroBlock is the shared source buffer for zero-filling. Read-only: every
// consumer (cache.Put, device writes) copies from it, never into it.
var zeroBlock = make([]byte, BlockSize)

// zeroFill writes zero blocks over logical blocks [from, to) — used when a
// hole is materialized, since allocated blocks may carry stale data.
// Callers must hold st.mu.
func (s *Service) zeroFill(st *fileState, from, to int) error {
	if from >= to {
		return nil
	}
	writeThrough := st.attr.Service == fit.ServiceTransaction
	for b := from; b < to; b++ {
		disk, addr, _, ok := st.extents.Lookup(b)
		if !ok {
			return fmt.Errorf("%w: zero-fill of unmapped block %d", ErrBadRequest, b)
		}
		key := blockKey{disk: int(disk), addr: int(addr)}
		if err := s.blockCache.Put(key, zeroBlock, true); err != nil {
			return err
		}
		if writeThrough {
			if err := s.blockCache.FlushKey(key); err != nil {
				return err
			}
		}
	}
	return nil
}

// Truncate sets the file size, freeing blocks beyond the new end.
func (s *Service) Truncate(id FileID, size int64) error {
	if size < 0 {
		return ErrBadOffset
	}
	st, err := s.lockFile(id)
	if err != nil {
		return err
	}
	defer st.mu.Unlock()
	if uint64(size) > st.attr.Size {
		// Extend with a hole; freshly mapped blocks are zero-filled so the
		// hole reads as zeros even when allocation reuses freed blocks.
		oldBlocks := st.extents.TotalBlocks()
		needBlocks := int((size + BlockSize - 1) / BlockSize)
		if err := s.grow(st, needBlocks); err != nil {
			return err
		}
		if err := s.zeroFill(st, oldBlocks, needBlocks); err != nil {
			return err
		}
	} else {
		keep := int((size + BlockSize - 1) / BlockSize)
		freed := st.extents.TruncateBlocks(keep)
		// Zero the tail of the last kept block so a later extension reads
		// zeros there rather than the pre-truncation bytes.
		if within := int(size % BlockSize); within != 0 && keep > 0 {
			buf, err := s.block(context.Background(), st, keep-1)
			if err != nil {
				return err
			}
			for i := within; i < BlockSize; i++ {
				buf[i] = 0
			}
			disk, addr, _, _ := st.extents.Lookup(keep - 1)
			if err := s.blockCache.Put(blockKey{disk: int(disk), addr: int(addr)}, buf, true); err != nil {
				return err
			}
		}
		st.attr.Size = uint64(size)
		st.fitDirty = true
		// Persist the shrunk FIT before freeing, so a crash in between leaks
		// blocks instead of leaving the FIT referencing reallocated ones.
		if err := s.writeFIT(st, false); err != nil {
			return err
		}
		for _, e := range freed {
			if err := s.disks[e.Disk].Free(int(e.Addr), int(e.Count)*FragmentsPerBlock); err != nil {
				return err
			}
			s.invalidateExtent(e)
		}
		return nil
	}
	st.attr.Size = uint64(size)
	st.fitDirty = true
	return s.writeFIT(st, false)
}

// BlockCount returns the number of logical blocks mapped by the file.
func (s *Service) BlockCount(id FileID) (int, error) {
	st, err := s.lockFile(id)
	if err != nil {
		return 0, err
	}
	defer st.mu.Unlock()
	return st.extents.TotalBlocks(), nil
}

// WriteBlockThrough writes logical block blk synchronously to disk
// (write-through), growing the file if blk is the next block.
func (s *Service) WriteBlockThrough(id FileID, blk int, data []byte) error {
	if len(data) != BlockSize {
		return fmt.Errorf("%w: block write of %d bytes", ErrBadRequest, len(data))
	}
	st, err := s.lockFile(id)
	if err != nil {
		return err
	}
	defer st.mu.Unlock()
	oldBlocks := st.extents.TotalBlocks()
	grew := oldBlocks < blk+1
	if err := s.grow(st, blk+1); err != nil {
		return err
	}
	if blk > oldBlocks {
		if err := s.zeroFill(st, oldBlocks, blk); err != nil {
			return err
		}
	}
	if grew {
		if err := s.writeFIT(st, false); err != nil {
			return err
		}
	}
	disk, addr, _, ok := st.extents.Lookup(blk)
	if !ok {
		return fmt.Errorf("%w: no block %d", ErrBadRequest, blk)
	}
	key := blockKey{disk: int(disk), addr: int(addr)}
	if err := s.blockCache.Put(key, data, true); err != nil {
		return err
	}
	return s.blockCache.FlushKey(key)
}

// ReplaceBlockDescriptor swaps logical block blk's descriptor for a new
// single-block extent — the shadow-page commit step (§6.7): the FIT is
// updated to point at the shadow block and the original block is freed.
// The FIT is persisted synchronously, including its stable copy.
func (s *Service) ReplaceBlockDescriptor(id FileID, blk int, newExt fit.Extent) error {
	if newExt.Count != 1 {
		return fmt.Errorf("%w: shadow extents are single blocks", ErrBadRequest)
	}
	st, err := s.lockFile(id)
	if err != nil {
		return err
	}
	defer st.mu.Unlock()
	total := st.extents.TotalBlocks()
	if blk < 0 || blk >= total {
		return fmt.Errorf("%w: no block %d", ErrBadRequest, blk)
	}
	oldDisk, oldAddr, _, _ := st.extents.Lookup(blk)
	// Rebuild the extent list with the replacement. This is the paper's
	// third disadvantage of shadow paging: the descriptor replacement breaks
	// contiguity (§6.7).
	m := fit.NewExtentMap(nil)
	for b := 0; b < total; b++ {
		if b == blk {
			m.Append(newExt)
			continue
		}
		d, a, _, _ := st.extents.Lookup(b)
		m.Append(fit.Extent{Disk: d, Addr: a, Count: 1})
	}
	st.extents = m
	s.blockCache.Invalidate(blockKey{disk: int(oldDisk), addr: int(oldAddr)})
	if err := s.disks[oldDisk].Free(int(oldAddr), FragmentsPerBlock); err != nil {
		return err
	}
	st.fitDirty = true
	return s.writeFIT(st, true)
}

// BlockLocation resolves logical block blk to its physical location (used
// by the transaction service to stage shadow pages on stable storage).
func (s *Service) BlockLocation(id FileID, blk int) (disk uint16, fragAddr uint32, err error) {
	st, err := s.lockFile(id)
	if err != nil {
		return 0, 0, err
	}
	defer st.mu.Unlock()
	d, a, _, ok := st.extents.Lookup(blk)
	if !ok {
		return 0, 0, fmt.Errorf("%w: no block %d", ErrBadRequest, blk)
	}
	return d, a, nil
}

// ContiguityProfile reports how contiguous the file's blocks are: the number
// of extents and the largest extent length in blocks (experiment E8's
// post-commit contiguity measure).
func (s *Service) ContiguityProfile(id FileID) (extents, largestRun int, err error) {
	st, err := s.lockFile(id)
	if err != nil {
		return 0, 0, err
	}
	defer st.mu.Unlock()
	exts := st.extents.Extents()
	largest := 0
	for _, e := range exts {
		if int(e.Count) > largest {
			largest = int(e.Count)
		}
	}
	return len(exts), largest, nil
}
