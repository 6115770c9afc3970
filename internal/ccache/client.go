package ccache

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/simclock"
)

// BlockSize is the cache's block granularity — the file service's block,
// so a cached block is exactly one server-side block.
const BlockSize = fileservice.BlockSize

// DefaultBlocks is the cache capacity in blocks, and the dirty high-water
// mark: dirty blocks are never evicted, so a write that would take the
// cache's dirty count past it writes its file back first.
const DefaultBlocks = 1024

// FlushSink receives write-back traffic: all of one file's dirty runs,
// coalesced and in offset order, in one call per flush. A sink may apply
// them atomically (E18 wraps them in one transaction); the default writes
// each run to Config.Inner.
type FlushSink interface {
	WriteRuns(id fileservice.FileID, runs []fileservice.Run) error
}

// innerSink is the default FlushSink.
type innerSink struct{ inner agent.FileService }

func (s innerSink) WriteRuns(id fileservice.FileID, runs []fileservice.Run) error {
	for _, r := range runs {
		if _, err := s.inner.WriteAt(id, r.Off, r.Data); err != nil {
			return err
		}
	}
	return nil
}

// Config configures a client cache.
type Config struct {
	// Inner is the remote file service the cache fronts (a cluster
	// router, an rpcfs client, or — in local mode — the file service
	// itself). Required.
	Inner agent.FileService
	// Lease is the lease-protocol transport. Nil selects local mode (see
	// the package comment): no coherence traffic at all, valid only when
	// this cache is the file's sole basic-file writer (the in-process
	// machine of core.Cluster.NewMachine; the E18 write-back scenarios).
	Lease LeaseTransport
	// ClientID identifies this cache to the server's lease table. It
	// must equal the rpc client identity the cache's reads, writes, and
	// flushes travel under, so the server can tell a holder's own
	// write-back from a conflicting client's write. Required with Lease.
	ClientID uint64
	// Sink overrides where flushed dirty runs go (default: one write per
	// run to Inner).
	Sink FlushSink
	// Obs receives cache telemetry (hits, misses, recalls, flushes) and
	// op spans. Optional.
	Obs *obs.Recorder
	// Now is the lease expiry clock; nil means a simclock.Wall of the
	// cache's own.
	Now simclock.Clock
}

// cblock is one cached block: data is always BlockSize long (short tails
// zero-padded; the file size decides how much of it is served).
type cblock struct {
	data  []byte
	dirty bool
	gen   uint64 // write generation, so a flush only cleans what it wrote
}

// fileState is the per-file cache state.
type fileState struct {
	// epoch guards cross-lock assembly: it is bumped whenever the lease
	// is revoked (recall, conn-down, release), so an in-flight fetch or
	// grant from before the revocation cannot install stale state.
	epoch   uint64
	mode    byte // 0 = no lease
	ver     uint64
	size    int64         // local size: server size plus buffered growth
	expires time.Duration // instant on the cache's clock
	gen     uint64
	blocks  map[int64]*cblock
	ndirty  int
}

// Client is the coherent client cache. It implements agent.FileService,
// so it drops in front of a router or rpcfs client transparently.
type Client struct {
	inner    agent.FileService
	lease    LeaseTransport
	sink     FlushSink
	clientID uint64
	rec      *obs.Recorder
	clock    simclock.Clock
	// hits and misses are the recorder's MetricHits and MetricMisses
	// gauges, resolved once (nil, and still countable, without a recorder).
	hits, misses *obs.Gauge

	mu    sync.Mutex
	files map[fileservice.FileID]*fileState
	total int // cached blocks across all files
	dirty int // of which dirty; held at or under DefaultBlocks by writeAt
	// innerSeq counts the times this cache itself moved a file's size on
	// the inner service (a flush, a truncate; bumped under mu). Local mode
	// reads the inner size outside mu; an answer that straddles such a move
	// may predate growth that is no longer buffered here, and is asked again.
	innerSeq atomic.Uint64
	// epochGen mints file-state epochs. Every epoch value — including a
	// freshly created state's — is globally unique for this client, so a
	// state deleted by a recall and recreated while an acquire was in
	// flight can never echo the epoch the acquire captured: the stale
	// grant is always rejected.
	epochGen uint64
}

var _ agent.FileService = (*Client)(nil)

// New builds a client cache.
func New(cfg Config) (*Client, error) {
	if cfg.Inner == nil {
		return nil, errors.New("ccache: nil inner file service")
	}
	if cfg.Lease != nil && cfg.ClientID == 0 {
		return nil, errors.New("ccache: leased mode requires a client ID")
	}
	clock := simclock.Or(cfg.Now)
	sink := cfg.Sink
	if sink == nil {
		sink = innerSink{cfg.Inner}
	}
	return &Client{
		inner:    cfg.Inner,
		lease:    cfg.Lease,
		sink:     sink,
		clientID: cfg.ClientID,
		rec:      cfg.Obs,
		clock:    clock,
		hits:     cfg.Obs.Gauge(MetricHits),
		misses:   cfg.Obs.Gauge(MetricMisses),
		files:    make(map[fileservice.FileID]*fileState),
	}, nil
}

// state returns (creating if needed) the per-file state. Callers hold mu.
func (c *Client) state(id fileservice.FileID) *fileState {
	st := c.files[id]
	if st == nil {
		c.epochGen++
		st = &fileState{epoch: c.epochGen, blocks: make(map[int64]*cblock)}
		c.files[id] = st
	}
	return st
}

// leasedLocked reports whether st holds a live lease of at least mode.
// Expiry is checked against the local clock: a partitioned client stops
// serving cached data on its own after one TTL, which is the protocol's
// staleness bound. Callers hold mu.
func (c *Client) leasedLocked(st *fileState, mode byte) bool {
	if st.mode == 0 || (mode == ModeWrite && st.mode != ModeWrite) {
		return false
	}
	return c.lease == nil || c.clock.Now() < st.expires
}

// ensureLease acquires (or renews) a lease of the given mode. It returns
// errNoLease when a recall raced the grant: the server has (or will have)
// dropped us after our ack, and the caller's attempt loop asks again.
func (c *Client) ensureLease(id fileservice.FileID, mode byte) error {
	if c.lease == nil {
		_, err := c.ensureLocal(id, mode)
		return err
	}
	c.mu.Lock()
	epoch := c.state(id).epoch
	c.mu.Unlock()
	// The lease runs from the request, not from the grant's arrival: the
	// server started its TTL no earlier than this instant, so a late reply
	// cannot stretch the lease past the server's expiry.
	asked := c.clock.Now()
	g, err := c.lease.AcquireLease(uint64(id), c.clientID, mode)
	if err == nil && !c.install(id, mode, g, epoch, asked) {
		err = errNoLease
	}
	return err
}

// ensureLocal is local mode's lease: with no transport nobody can recall
// it, so it never expires, but nobody can tell this cache that the file
// grew either, so every operation comes through here and re-asks the inner
// size (the package comment's size rule). It returns the file's size:
// max(inner size, locally buffered growth).
func (c *Client) ensureLocal(id fileservice.FileID, mode byte) (int64, error) {
	for {
		seq := c.innerSeq.Load()
		size, err := c.inner.Size(id)
		if err != nil {
			return 0, err
		}
		c.mu.Lock()
		if seq != c.innerSeq.Load() {
			c.mu.Unlock()
			continue
		}
		st := c.state(id)
		if st.ndirty == 0 || size > st.size {
			st.size = size
		}
		if st.mode != ModeWrite {
			st.mode = mode
		}
		size = st.size
		c.mu.Unlock()
		return size, nil
	}
}

// install applies a grant requested at the instant asked, unless the
// file's epoch moved while the acquire was in flight (a recall or
// disconnection revoked the state the grant was built against). Reports
// whether the grant took.
func (c *Client) install(id fileservice.FileID, mode byte, g Grant, epoch uint64, asked time.Duration) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.state(id)
	if st.epoch != epoch {
		return false
	}
	if g.Ver != st.ver {
		// The file changed since these blocks were cached (someone else
		// wrote, or our own flush landed): clean blocks are stale. Dirty
		// blocks survive — they carry this client's unflushed writes.
		c.dropCleanLocked(st)
		st.ver = g.Ver
	}
	st.mode = mode
	st.expires = asked + g.TTL
	// st.size is exact while dirty blocks are buffered (writeAt maintains
	// it through every buffered write), so a smaller grant size must not
	// clamp away unflushed growth. With no dirty state — or when the file
	// grew remotely past our knowledge — the grant is the truth.
	if st.ndirty == 0 || g.Size > st.size {
		st.size = g.Size
	}
	return true
}

// dropCleanLocked evicts every clean block of one file. Callers hold mu.
func (c *Client) dropCleanLocked(st *fileState) {
	for blk, cb := range st.blocks {
		if !cb.dirty {
			delete(st.blocks, blk)
			c.total--
		}
	}
}

// evictLocked brings the cache back under capacity by dropping clean
// blocks (never dirty ones — those hold unflushed writes). Map iteration
// order makes this approximately random replacement. Callers hold mu.
func (c *Client) evictLocked() {
	if c.total <= DefaultBlocks {
		return
	}
	for _, st := range c.files {
		for blk, cb := range st.blocks {
			if cb.dirty {
				continue
			}
			delete(st.blocks, blk)
			c.total--
			if c.total <= DefaultBlocks {
				return
			}
		}
	}
}

// putCleanLocked installs a fetched block (padded to BlockSize) unless
// one is already cached — a dirty block must never be clobbered by a
// fetch. Callers hold mu.
func (c *Client) putCleanLocked(st *fileState, blk int64, data []byte) {
	if st.blocks[blk] != nil {
		return
	}
	buf := make([]byte, BlockSize)
	copy(buf, data)
	st.blocks[blk] = &cblock{data: buf}
	c.total++
}

// gap is one uncovered byte range of a read being assembled.
type gap struct {
	outOff int
	off    int64
	n      int
}

// ReadAtCtx implements agent.FileService. While a live lease covers the
// file, cached reads complete with zero RPCs: the size check, the block
// lookups, and the data all come from local state — the paper's
// client-cache promise, made safe by the recall protocol.
func (c *Client) ReadAtCtx(ctx context.Context, id fileservice.FileID, off int64, n int) ([]byte, error) {
	if off < 0 || n < 0 {
		return c.inner.ReadAtCtx(ctx, id, off, n)
	}
	rctx, op := c.rec.StartOp(ctx, obs.LayerAgent, "ccache.read")
	op.SetFile(uint64(id))
	out, err := c.readAt(rctx, id, off, n)
	op.AddBytes(len(out))
	op.End(err)
	return out, err
}

func (c *Client) readAt(ctx context.Context, id fileservice.FileID, off int64, n int) ([]byte, error) {
	if c.lease == nil {
		if _, err := c.ensureLocal(id, ModeRead); err != nil {
			return c.inner.ReadAtCtx(ctx, id, off, n)
		}
	}
	for attempt := 0; attempt < 4; attempt++ {
		c.mu.Lock()
		st := c.files[id]
		if st == nil || !c.leasedLocked(st, ModeRead) {
			c.mu.Unlock()
			if err := c.ensureLease(id, ModeRead); err != nil && !errors.Is(err, errNoLease) {
				if c.lease != nil {
					// A hard lease failure (e.g. no such file) usually
					// means the direct read fails identically; fall
					// through so the caller sees the inner error.
					c.misses.Inc()
				}
				return c.inner.ReadAtCtx(ctx, id, off, n)
			}
			continue
		}
		size := st.size
		if off >= size {
			c.mu.Unlock()
			c.hits.Inc()
			return nil, nil
		}
		if off+int64(n) > size {
			n = int(size - off)
		}
		out := make([]byte, n)
		var gaps []gap
		covered := 0
		for covered < n {
			pos := off + int64(covered)
			blk := pos / BlockSize
			within := int(pos % BlockSize)
			chunk := BlockSize - within
			if chunk > n-covered {
				chunk = n - covered
			}
			if cb := st.blocks[blk]; cb != nil {
				copy(out[covered:covered+chunk], cb.data[within:within+chunk])
			} else if len(gaps) > 0 && gaps[len(gaps)-1].off+int64(gaps[len(gaps)-1].n) == pos {
				gaps[len(gaps)-1].n += chunk
			} else {
				gaps = append(gaps, gap{outOff: covered, off: pos, n: chunk})
			}
			covered += chunk
		}
		if len(gaps) == 0 {
			c.mu.Unlock()
			c.hits.Inc()
			return out, nil
		}
		epoch := st.epoch
		c.mu.Unlock()
		if ok, err := c.fillGaps(ctx, id, st, epoch, out, gaps); err != nil {
			return nil, err
		} else if !ok {
			continue // lease moved mid-assembly: retry for a coherent read
		}
		c.misses.Inc()
		return out, nil
	}
	// Lease churn (recalls racing this read): serve uncached, which is
	// atomic under the server's per-file lock.
	c.misses.Inc()
	return c.inner.ReadAtCtx(ctx, id, off, n)
}

// fillGaps fetches the uncovered ranges of a read block-aligned, copies
// them into out, and installs whole blocks into the cache. It reports
// false when the file's epoch moved mid-fetch — the assembled mix of
// cached and fetched bytes might then span a conflicting write, so the
// caller must retry.
func (c *Client) fillGaps(ctx context.Context, id fileservice.FileID, st *fileState, epoch uint64, out []byte, gaps []gap) (bool, error) {
	for _, g := range gaps {
		aOff := g.off - g.off%BlockSize
		aEnd := g.off + int64(g.n)
		if rem := aEnd % BlockSize; rem != 0 {
			aEnd += BlockSize - rem
		}
		data, err := c.inner.ReadAtCtx(ctx, id, aOff, int(aEnd-aOff))
		if err != nil {
			return false, err
		}
		// Copy the requested span; a short fetch (a hole not yet
		// materialized, buffered growth past the server's size) leaves
		// the zero bytes make() put in out, which is what those ranges
		// contain.
		from := g.off - aOff
		if from < int64(len(data)) {
			copy(out[g.outOff:g.outOff+g.n], data[from:])
		}
		c.mu.Lock()
		if c.files[id] != st || st.epoch != epoch || !c.leasedLocked(st, ModeRead) {
			c.mu.Unlock()
			rpc.Recycle(data)
			return false, nil
		}
		for b := aOff / BlockSize; b*BlockSize < aEnd; b++ {
			lo := (b - aOff/BlockSize) * BlockSize
			if lo >= int64(len(data)) {
				c.putCleanLocked(st, b, nil) // hole: zeros
				continue
			}
			hi := lo + BlockSize
			if hi > int64(len(data)) {
				hi = int64(len(data))
			}
			c.putCleanLocked(st, b, data[lo:hi])
		}
		c.evictLocked()
		c.mu.Unlock()
		// A fetched reply is ours (the rpcfs read contract transfers
		// ownership; the plain file service returns fresh buffers), and
		// its bytes were just copied into a cache block — recycle it.
		rpc.Recycle(data)
	}
	return true, nil
}

// WriteAtCtx implements agent.FileService: under a write lease the data is
// buffered locally (the paper's delayed write) and written back on close, a
// recall, a truncate, the dirty high-water mark, a write that cannot get a
// write lease, or an explicit flush.
func (c *Client) WriteAtCtx(ctx context.Context, id fileservice.FileID, off int64, data []byte) (int, error) {
	if off < 0 {
		return c.inner.WriteAtCtx(ctx, id, off, data)
	}
	if len(data) == 0 {
		return 0, nil
	}
	rctx, op := c.rec.StartOp(ctx, obs.LayerAgent, "ccache.write")
	op.SetFile(uint64(id))
	n, err := c.writeAt(rctx, id, off, data)
	op.AddBytes(n)
	op.End(err)
	return n, err
}

func (c *Client) writeAt(ctx context.Context, id fileservice.FileID, off int64, data []byte) (int, error) {
	end := off + int64(len(data))
	firstBlk, lastBlk := off/BlockSize, (end-1)/BlockSize
	if c.lease == nil {
		if _, err := c.ensureLocal(id, ModeWrite); err != nil {
			return c.inner.WriteAtCtx(ctx, id, off, data)
		}
	}
	flushed := false
	for attempt := 0; attempt < 4; attempt++ {
		c.mu.Lock()
		st := c.files[id]
		if st == nil || !c.leasedLocked(st, ModeWrite) {
			c.mu.Unlock()
			if err := c.ensureLease(id, ModeWrite); err != nil && !errors.Is(err, errNoLease) {
				break // write through below
			}
			continue
		}
		if !flushed && c.dirty+c.cleanLocked(st, firstBlk, lastBlk) > DefaultBlocks {
			// Dirty high-water: nothing evicts a dirty block, so a writer
			// that never closes writes its file back here instead of growing
			// without bound. Once per write — a write larger than the mark,
			// or a mark held by other files, buffers anyway.
			c.mu.Unlock()
			if err := c.FlushFile(id); err != nil {
				return 0, err
			}
			flushed = true
			continue
		}
		// Partial edge blocks absent from the cache need their existing
		// bytes first (read-modify-write) when the file already has data
		// there; whole-block overwrites and fresh tails do not.
		var need []int64
		if off%BlockSize != 0 && st.blocks[firstBlk] == nil && firstBlk*BlockSize < st.size {
			// Bytes [firstBlk*BlockSize, off) exist and must be preserved.
			need = append(need, firstBlk)
		}
		if end%BlockSize != 0 && st.blocks[lastBlk] == nil && end < st.size &&
			(len(need) == 0 || need[len(need)-1] != lastBlk) {
			// Bytes [end, block end) exist and must be preserved.
			need = append(need, lastBlk)
		}
		if len(need) > 0 {
			epoch := st.epoch
			c.mu.Unlock()
			if ok, err := c.fetchBlocks(ctx, id, st, epoch, need); err != nil {
				return 0, err
			} else if !ok {
				continue
			}
			c.mu.Lock()
			if c.files[id] != st || st.epoch != epoch || !c.leasedLocked(st, ModeWrite) {
				c.mu.Unlock()
				continue
			}
		}
		written := 0
		for written < len(data) {
			pos := off + int64(written)
			blk := pos / BlockSize
			within := int(pos % BlockSize)
			chunk := BlockSize - within
			if chunk > len(data)-written {
				chunk = len(data) - written
			}
			cb := st.blocks[blk]
			if cb == nil {
				cb = &cblock{data: make([]byte, BlockSize)}
				st.blocks[blk] = cb
				c.total++
			}
			copy(cb.data[within:within+chunk], data[written:written+chunk])
			if !cb.dirty {
				cb.dirty = true
				st.ndirty++
				c.dirty++
			}
			st.gen++
			cb.gen = st.gen
			written += chunk
		}
		if end > st.size {
			st.size = end
		}
		c.evictLocked()
		c.mu.Unlock()
		return len(data), nil
	}
	// No write lease to be had: push pending buffered writes first so
	// ordering is preserved, then write through.
	if err := c.FlushFile(id); err != nil {
		return 0, err
	}
	return c.inner.WriteAtCtx(ctx, id, off, data)
}

// cleanLocked counts the blocks of [first, last] that are not dirty yet —
// what a write over that range adds to the dirty set. Callers hold mu.
func (c *Client) cleanLocked(st *fileState, first, last int64) int {
	n := 0
	for blk := first; blk <= last; blk++ {
		if cb := st.blocks[blk]; cb == nil || !cb.dirty {
			n++
		}
	}
	return n
}

// fetchBlocks pulls whole blocks into the cache for read-modify-write,
// reporting false when the epoch moved mid-fetch.
func (c *Client) fetchBlocks(ctx context.Context, id fileservice.FileID, st *fileState, epoch uint64, blks []int64) (bool, error) {
	for _, blk := range blks {
		data, err := c.inner.ReadAtCtx(ctx, id, blk*BlockSize, BlockSize)
		if err != nil {
			return false, err
		}
		c.mu.Lock()
		if c.files[id] != st || st.epoch != epoch {
			c.mu.Unlock()
			rpc.Recycle(data)
			return false, nil
		}
		c.putCleanLocked(st, blk, data)
		c.mu.Unlock()
		rpc.Recycle(data) // copied into the cache block above
	}
	return true, nil
}

// blockGen names a dirty block and the write generation a flush snapshot
// captured, so only un-redirtied blocks are marked clean afterwards.
type blockGen struct {
	blk int64
	gen uint64
}

// FlushFile writes one file's dirty blocks back through the sink,
// coalescing adjacent blocks into runs. Blocks redirtied while the flush
// was in flight stay dirty.
func (c *Client) FlushFile(id fileservice.FileID) error {
	c.mu.Lock()
	st := c.files[id]
	if st == nil || st.ndirty == 0 {
		c.mu.Unlock()
		return nil
	}
	idxs := make([]int64, 0, st.ndirty)
	for blk, cb := range st.blocks {
		if cb.dirty {
			idxs = append(idxs, blk)
		}
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	size := st.size
	var runs []fileservice.Run
	var flushed []blockGen
	for i := 0; i < len(idxs); {
		j := i
		for j+1 < len(idxs) && idxs[j+1] == idxs[j]+1 {
			j++
		}
		lo, hi := idxs[i]*BlockSize, (idxs[j]+1)*BlockSize
		if hi > size {
			hi = size
		}
		buf := make([]byte, hi-lo)
		for k := i; k <= j; k++ {
			cb := st.blocks[idxs[k]]
			boff := (idxs[k] - idxs[i]) * BlockSize
			bend := boff + BlockSize
			if bend > int64(len(buf)) {
				bend = int64(len(buf))
			}
			if boff < int64(len(buf)) {
				copy(buf[boff:bend], cb.data)
			}
			flushed = append(flushed, blockGen{idxs[k], cb.gen})
		}
		runs = append(runs, fileservice.Run{Off: lo, Data: buf})
		i = j + 1
	}
	c.mu.Unlock()
	_, fop := c.rec.StartRoot(context.Background(), obs.LayerAgent, "ccache.flush")
	fop.SetFile(uint64(id))
	err := c.sink.WriteRuns(id, runs)
	fop.End(err)
	if err != nil {
		return fmt.Errorf("ccache: flush of file %#x: %w", uint64(id), err)
	}
	c.rec.Gauge(MetricFlushBlocks).Add(int64(len(flushed)))
	c.mu.Lock()
	c.innerSeq.Add(1)
	if c.files[id] == st {
		for _, fg := range flushed {
			if cb := st.blocks[fg.blk]; cb != nil && cb.dirty && cb.gen == fg.gen {
				cb.dirty = false
				st.ndirty--
				c.dirty--
			}
		}
		c.evictLocked()
	}
	c.mu.Unlock()
	return nil
}

// Flush writes every file's dirty blocks back (Shutdown, and
// core.Cluster.Flush for the in-process machines' caches).
func (c *Client) Flush() error {
	c.mu.Lock()
	ids := make([]fileservice.FileID, 0, len(c.files))
	for id, st := range c.files {
		if st.ndirty > 0 {
			ids = append(ids, id)
		}
	}
	c.mu.Unlock()
	var firstErr error
	for _, id := range ids {
		if err := c.FlushFile(id); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Recall handles a cc.recall push: revoke the lease immediately (no new
// cached serves), write dirty blocks back, purge, and acknowledge so the
// server can let the conflicting operation proceed. Wire it to the
// transport's push handler (rpc.WithPushHandler / the router's push
// sink); it is nil-safe so wiring can precede construction.
func (c *Client) Recall(id fileservice.FileID, ver uint64) {
	if c == nil {
		return
	}
	c.rec.Gauge(MetricRecalls).Inc()
	_ = ver // informational: the version the server is moving past
	c.mu.Lock()
	st := c.files[id]
	if st == nil {
		c.mu.Unlock()
		c.ackRecall(id)
		return
	}
	c.revokeLocked(id, st)
	dirty := st.ndirty > 0
	c.mu.Unlock()
	if dirty {
		// Write-back before surrender: the conflicting reader or writer
		// must see our buffered writes. The server excludes this client
		// from its own conflict checks, so these writes pass.
		_ = c.FlushFile(id)
	}
	c.mu.Lock()
	if st2 := c.files[id]; st2 == st && st.mode == 0 {
		c.dropCleanLocked(st)
		if len(st.blocks) == 0 {
			delete(c.files, id)
		}
	}
	c.mu.Unlock()
	c.ackRecall(id)
}

func (c *Client) ackRecall(id fileservice.FileID) {
	if c.lease != nil {
		_ = c.lease.AckRecall(uint64(id), c.clientID)
	}
}

// DropLeases revokes local lease state for every file match accepts (all
// files when match is nil) without server communication — the conn-down
// path: the server's pushes can no longer reach us, so cached data must
// not outlive the connection. Dirty blocks survive for a later flush
// over the redialed connection. Nil-safe.
func (c *Client) DropLeases(match func(fileservice.FileID) bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	for id, st := range c.files {
		if match == nil || match(id) {
			c.revokeLocked(id, st)
		}
	}
	c.mu.Unlock()
}

// Shutdown flushes every dirty block and releases every held lease — the
// graceful exit path for a client that is done. A client that skips it
// leaves its leases to the server's liveness machinery (a conflicting
// operation recalls the dead pusher and breaks the lease instantly), but
// the conflicting caller eats one transient refusal first; releasing on
// the way out spares it that.
func (c *Client) Shutdown() error {
	if err := c.Flush(); err != nil {
		return err
	}
	c.mu.Lock()
	ids := make([]fileservice.FileID, 0, len(c.files))
	for id, st := range c.files {
		if st.mode != 0 {
			ids = append(ids, id)
		}
	}
	c.mu.Unlock()
	for _, id := range ids {
		c.release(id)
	}
	return nil
}

// revokeLocked ends st's lease client-side: the new epoch voids a grant in
// flight, clean blocks go, and so does the record once nothing is buffered.
// Callers hold mu.
func (c *Client) revokeLocked(id fileservice.FileID, st *fileState) {
	c.epochGen++
	st.epoch = c.epochGen
	st.mode = 0
	c.dropCleanLocked(st)
	if len(st.blocks) == 0 {
		delete(c.files, id)
	}
}

// release drops the lease client-side and tells the server.
func (c *Client) release(id fileservice.FileID) {
	c.mu.Lock()
	st := c.files[id]
	held := st != nil && st.mode != 0
	if st != nil {
		c.revokeLocked(id, st)
	}
	c.mu.Unlock()
	if held && c.lease != nil {
		_ = c.lease.ReleaseLease(uint64(id), c.clientID)
	}
}

// Create implements agent.FileService (passthrough).
func (c *Client) Create(attr fit.Attributes) (fileservice.FileID, error) {
	return c.inner.Create(attr)
}

// Open implements agent.FileService (passthrough).
func (c *Client) Open(id fileservice.FileID) error { return c.inner.Open(id) }

// Close implements agent.FileService: dirty blocks are flushed and the
// lease released before the descriptor closes, so close-to-open
// consistency holds — the next opener reads what this client wrote.
func (c *Client) Close(id fileservice.FileID) error {
	if err := c.FlushFile(id); err != nil {
		return err
	}
	c.release(id)
	return c.inner.Close(id)
}

// Delete implements agent.FileService: local state is purged first; the
// server recalls every other holder before executing.
func (c *Client) Delete(id fileservice.FileID) error {
	c.mu.Lock()
	if st := c.files[id]; st != nil {
		c.epochGen++
		st.epoch = c.epochGen
		c.total -= len(st.blocks)
		c.dirty -= st.ndirty
		delete(c.files, id)
	}
	c.mu.Unlock()
	if c.lease != nil {
		_ = c.lease.ReleaseLease(uint64(id), c.clientID)
	}
	return c.inner.Delete(id)
}

// Truncate implements agent.FileService. It is write-through: pending
// dirty blocks flush first, the truncation executes remotely (recalling
// other holders), then local state is trimmed to match.
func (c *Client) Truncate(id fileservice.FileID, size int64) error {
	if size < 0 {
		return c.inner.Truncate(id, size)
	}
	if err := c.FlushFile(id); err != nil {
		return err
	}
	if err := c.inner.Truncate(id, size); err != nil {
		return err
	}
	c.mu.Lock()
	c.innerSeq.Add(1)
	if st := c.files[id]; st != nil {
		st.size = size
		for blk, cb := range st.blocks {
			if blk*BlockSize >= size {
				if cb.dirty {
					st.ndirty--
					c.dirty--
				}
				delete(st.blocks, blk)
				c.total--
			} else if (blk+1)*BlockSize > size {
				for i := size % BlockSize; i < BlockSize; i++ {
					cb.data[i] = 0
				}
			}
		}
	}
	c.mu.Unlock()
	return nil
}

// Attributes implements agent.FileService: a passthrough, with the size
// overridden by the leased local size so buffered growth is visible. In
// local mode the inner answer is the fresh one and only buffered growth
// can exceed it.
func (c *Client) Attributes(id fileservice.FileID) (fit.Attributes, error) {
	attr, err := c.inner.Attributes(id)
	if err != nil {
		return attr, err
	}
	c.mu.Lock()
	if st := c.files[id]; st != nil && c.leasedLocked(st, ModeRead) &&
		(c.lease != nil || (st.ndirty > 0 && uint64(st.size) > attr.Size)) {
		attr.Size = uint64(st.size)
	}
	c.mu.Unlock()
	return attr, nil
}

// Size implements agent.FileService: served from the lease without an
// RPC — the grant carried the size, and while leased no one else can
// change it.
func (c *Client) Size(id fileservice.FileID) (int64, error) {
	if c.lease == nil {
		return c.ensureLocal(id, ModeRead)
	}
	c.mu.Lock()
	if st := c.files[id]; st != nil && c.leasedLocked(st, ModeRead) {
		size := st.size
		c.mu.Unlock()
		c.hits.Inc()
		return size, nil
	}
	c.mu.Unlock()
	if err := c.ensureLease(id, ModeRead); err != nil {
		return c.inner.Size(id)
	}
	c.mu.Lock()
	if st := c.files[id]; st != nil && c.leasedLocked(st, ModeRead) {
		size := st.size
		c.mu.Unlock()
		return size, nil
	}
	c.mu.Unlock()
	return c.inner.Size(id)
}
