// Package wal implements the write-ahead logging technique of §6.7: the
// after-images of a transaction's tentative updates are appended to a log on
// stable storage before the in-place blocks are touched, so the sequence of
// disk blocks storing the file's data never changes — contiguous blocks stay
// contiguous across commits, which is the property the paper chooses WAL
// for.
//
// The log is a region of a stable.Store. Records are length-prefixed and
// CRC-protected; Replay scans until the first invalid record, which is where
// a crash truncated the log. Every record carries a generation, and a valid
// log never goes down in generation: Reset starts the emptied log with a
// checkpoint record of a generation above any the log has written or
// replayed, so the records of the epoch before it, still in the region
// behind the new ones, end a replay rather than extend it. Records buffered
// but not yet Synced are lost in a crash — exactly the write-ahead
// discipline the transaction service relies on (it Syncs the commit record
// before applying updates in place).
//
// Concurrency and ownership contract: a Log is safe for concurrent use —
// one mutex serializes appends, syncs and resets. Append only buffers;
// durability is bought separately by Sync, which is the §6.6 stable-storage
// barrier and the unit the transaction service's group commit amortizes:
// one Sync hardens every record appended before it, whichever goroutine
// appended them, so a batch leader syncs on behalf of parked followers.
// Sync holds the mutex across its stable write and barrier, so an Append
// issued while a sync is in flight waits until that write has landed:
// appends and the sync do not overlap, and the records the next Sync
// covers are the ones appended after this one returns.
// Sync is failure-atomic — on error the durable watermark has not advanced,
// and the owner of the failed barrier must call DropUnsynced to discard the
// records the barrier covered (they may belong to other goroutines; the
// transaction service fails those commits too). Mark/Rollback let a caller
// back out its own partial append sequence before any Sync covers it;
// rolling back past another goroutine's records is the caller's bug.
// Record slices are copied on Append, so callers keep their buffers.
package wal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sync"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/stable"
)

// Fault points bracketing the Sync write. Dying before the write loses the
// buffered records (they were never durable); dying after it leaves a fully
// durable tail that Replay picks up even though the in-memory watermarks
// were never advanced.
var (
	PtSyncBeforeWrite = fault.Register("wal.sync.before-write")
	PtSyncAfterWrite  = fault.Register("wal.sync.after-write")
)

// RecordType discriminates log records.
type RecordType byte

// Record types.
const (
	// RecUpdate carries the after-image of one tentative update.
	RecUpdate RecordType = iota + 1
	// RecCommit marks a transaction committed; updates up to here are redone
	// during recovery.
	RecCommit
	// RecAbort marks a transaction aborted; its updates are skipped.
	RecAbort
	// RecCheckpoint marks that everything before it is applied in place.
	RecCheckpoint
)

// String implements fmt.Stringer.
func (t RecordType) String() string {
	switch t {
	case RecUpdate:
		return "update"
	case RecCommit:
		return "commit"
	case RecAbort:
		return "abort"
	case RecCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("RecordType(%d)", byte(t))
	}
}

// Record is one log entry. For RecUpdate, the after-image Data applies at
// byte Offset within the fragment run starting at fragment Addr on disk
// Disk; File names the owning file for diagnostics.
type Record struct {
	Type   RecordType
	Txn    uint64
	File   uint64
	Disk   uint16
	Addr   uint32
	Offset uint32
	Data   []byte
}

// Errors.
var (
	// ErrLogFull reports that the log region cannot hold the record; the
	// caller should checkpoint and Reset.
	ErrLogFull = errors.New("wal: log region full")
)

const (
	recMagic   = 0x57414C31 // "WAL1"
	headerSize = 4 + 4 + 8 + 4 + 1 + 8 + 8 + 2 + 4 + 4 + 4
	trailerLen = 4 // CRC
	fragSize   = 2 * 1024
)

// Log is a write-ahead log over a stable-storage region. It is safe for
// concurrent use.
type Log struct {
	store *stable.Store
	start int // first fragment of the region
	frags int // region length in fragments

	mu        sync.Mutex
	buf       []byte // in-memory image of the region
	off       int    // append offset
	synced    int    // bytes already on stable storage
	lsn       uint64
	lsnSynced uint64 // lsn of the last synced record
	// gen is the record generation. It increases whenever appends resume
	// after a Replay, and at every Reset, so that stale records left on disk
	// beyond a truncation point (which may have consecutive LSNs) are
	// recognizable: a valid log has non-decreasing generations.
	gen uint32
	// head is the length of the checkpoint record a Reset put at the head
	// of the log, 0 when the log has none.
	head int

	fault *fault.Injector
	obs   *obs.Recorder
	syncs *metrics.Counter // metrics.WalSyncs
}

// Option configures a Log.
type Option func(*Log)

// WithFault attaches a fault injector to the Sync path. A nil injector is
// valid and injects nothing.
func WithFault(in *fault.Injector) Option { return func(l *Log) { l.fault = in } }

// WithObs records every Sync that hardened records as a wal-layer
// observation, so the per-layer profile shows the stable-storage barrier
// count and latency — the quantity group commit amortizes. No-op syncs and
// failed syncs are not recorded. A nil recorder is valid and records
// nothing.
func WithObs(rec *obs.Recorder) Option { return func(l *Log) { l.obs = rec } }

// WithMetrics counts Sync barriers that hardened records (metrics.WalSyncs);
// no-op and failed syncs are excluded, so dividing commits by the counter
// measures real amortization. A nil set is valid.
func WithMetrics(set *metrics.Set) Option {
	return func(l *Log) { l.syncs = set.Counter(metrics.WalSyncs) }
}

// Open attaches to the log region [start, start+frags) of store. The region
// must already be allocated by the caller. Open does not read the region;
// call Replay to process existing records, or Reset to start clean.
func Open(store *stable.Store, start, frags int, opts ...Option) (*Log, error) {
	if store == nil {
		return nil, errors.New("wal: nil store")
	}
	if frags <= 0 || start < 0 || start+frags > store.Capacity() {
		return nil, fmt.Errorf("wal: invalid region [%d,%d) of %d", start, start+frags, store.Capacity())
	}
	l := &Log{store: store, start: start, frags: frags, gen: 1, buf: make([]byte, frags*fragSize)}
	for _, o := range opts {
		o(l)
	}
	return l, nil
}

// Capacity returns the region size in bytes.
func (l *Log) Capacity() int { return l.frags * fragSize }

// AppendedBytes returns the bytes appended since the last Reset, its
// checkpoint record aside (diagnostic; the commit-I/O cost measure in E8).
func (l *Log) AppendedBytes() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.off - l.head
}

// Append buffers a record and returns its LSN. The record is not durable
// until Sync returns.
func (l *Log) Append(rec Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(rec)
}

func (l *Log) appendLocked(rec Record) (uint64, error) {
	need := headerSize + len(rec.Data) + trailerLen
	if l.off+need > len(l.buf) {
		return 0, fmt.Errorf("%w: need %d bytes, %d left", ErrLogFull, need, len(l.buf)-l.off)
	}
	l.lsn++
	b := l.buf[l.off : l.off+need]
	binary.BigEndian.PutUint32(b[0:], recMagic)
	binary.BigEndian.PutUint32(b[4:], uint32(need))
	binary.BigEndian.PutUint64(b[8:], l.lsn)
	binary.BigEndian.PutUint32(b[16:], l.gen)
	b[20] = byte(rec.Type)
	binary.BigEndian.PutUint64(b[21:], rec.Txn)
	binary.BigEndian.PutUint64(b[29:], rec.File)
	binary.BigEndian.PutUint16(b[37:], rec.Disk)
	binary.BigEndian.PutUint32(b[39:], rec.Addr)
	binary.BigEndian.PutUint32(b[43:], rec.Offset)
	binary.BigEndian.PutUint32(b[47:], uint32(len(rec.Data)))
	copy(b[headerSize:], rec.Data)
	crc := crc32.ChecksumIEEE(b[:need-trailerLen])
	binary.BigEndian.PutUint32(b[need-trailerLen:], crc)
	l.off += need
	return l.lsn, nil
}

// Sync writes every buffered fragment that changed since the last Sync to
// stable storage, waiting for both mirrors. It also takes the store's kept
// deferred-write error (stable.Store.Barrier), so a commit point cannot
// complete over a silently failed deferred write.
//
// Sync is failure-atomic: on any error the synced/lsnSynced watermarks are
// left untouched, so a retry rewrites the whole possibly-torn fragment range
// from its start rather than resuming past a partial write.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.off == l.synced {
		// Nothing of ours to write, but still surface deferred-write errors
		// the store may be sitting on. Not counted below: no records were
		// hardened, and the wal.syncs counter means barriers that hardened
		// something (E19's commits-per-sync amortization divides by it).
		if err := l.store.Barrier(); err != nil {
			return fmt.Errorf("wal: sync: deferred stable write: %w", err)
		}
		return nil
	}
	// A failed sync is left unrecorded: the bracket ends only on success.
	_, op := l.obs.StartOp(context.Background(), obs.LayerWal, "sync")
	l.fault.Hit(PtSyncBeforeWrite)
	firstFrag := l.synced / fragSize
	lastFrag := (l.off - 1) / fragSize
	data := l.buf[firstFrag*fragSize : (lastFrag+1)*fragSize]
	if err := l.store.Write(l.start+firstFrag, data); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	if err := l.store.Barrier(); err != nil {
		return fmt.Errorf("wal: sync: deferred stable write: %w", err)
	}
	l.fault.Hit(PtSyncAfterWrite)
	l.synced = l.off
	l.lsnSynced = l.lsn
	l.syncs.Inc()
	op.EndCost(0, nil) // the write's virtual time is the device layer's
	return nil
}

// Replay reads the region from stable storage and calls fn for each valid
// record in order, stopping cleanly at the end of the log (the first invalid
// or absent record). It returns fn's first error. Replay also primes the
// log's append state so new records go after the replayed ones.
func (l *Log) Replay(fn func(Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := l.store.Read(l.start, l.frags)
	if err != nil {
		return fmt.Errorf("wal: reading region: %w", err)
	}
	copy(l.buf, data)
	off, head := 0, 0
	var lastLSN uint64
	var lastGen uint32
	for off+headerSize+trailerLen <= len(l.buf) {
		b := l.buf[off:]
		if binary.BigEndian.Uint32(b[0:]) != recMagic {
			break
		}
		need := int(binary.BigEndian.Uint32(b[4:]))
		if need < headerSize+trailerLen || off+need > len(l.buf) {
			break
		}
		crc := binary.BigEndian.Uint32(b[need-trailerLen : need])
		if crc32.ChecksumIEEE(b[:need-trailerLen]) != crc {
			break // torn write: the log ends here
		}
		lsn := binary.BigEndian.Uint64(b[8:])
		if lsn != lastLSN+1 {
			break // LSN discontinuity: end of log
		}
		gen := binary.BigEndian.Uint32(b[16:])
		if gen < lastGen {
			break // stale residue from before a truncation
		}
		if gen == math.MaxUint32 {
			// Appends after this replay take generation lastGen+1. A record
			// already at the last one (corruption: a generation is used up
			// per recovery) would wrap that to zero, and the next replay
			// would drop everything appended since as stale.
			break
		}
		if RecordType(b[20]) == RecCheckpoint {
			if off > 0 {
				break // only a Reset writes one, at the head of the log
			}
			head = need
			lastLSN, lastGen, off = lsn, gen, need
			continue
		}
		rec := Record{
			Type:   RecordType(b[20]),
			Txn:    binary.BigEndian.Uint64(b[21:]),
			File:   binary.BigEndian.Uint64(b[29:]),
			Disk:   binary.BigEndian.Uint16(b[37:]),
			Addr:   binary.BigEndian.Uint32(b[39:]),
			Offset: binary.BigEndian.Uint32(b[43:]),
		}
		n := int(binary.BigEndian.Uint32(b[47:]))
		if n != need-headerSize-trailerLen {
			break // length fields disagree: treat as end of log
		}
		rec.Data = make([]byte, n)
		copy(rec.Data, b[headerSize:headerSize+n])
		if err := fn(rec); err != nil {
			return err
		}
		lastLSN = lsn
		lastGen = gen
		off += need
	}
	l.off = off
	l.head = head
	l.synced = off
	l.lsn = lastLSN
	l.lsnSynced = lastLSN
	l.gen = lastGen + 1 // appends after a replay start a new generation
	return nil
}

// Reset truncates the log (after a checkpoint has applied everything in
// place). The emptied log starts with a checkpoint record of the next
// generation, written to stable storage at once: a replay then finds no
// records, and the records appended after the checkpoint, however far they
// get, stand above the residue of the epoch before it.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	clear(l.buf)
	l.off, l.synced = 0, 0
	l.lsn, l.lsnSynced = 0, 0
	l.gen++
	if _, err := l.appendLocked(Record{Type: RecCheckpoint}); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	l.head = l.off
	// The rest of the region is logically dead.
	if err := l.store.Write(l.start, l.buf[:fragSize]); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	l.synced, l.lsnSynced = l.off, l.lsn
	return nil
}

// DropUnsynced discards records appended since the last Sync — used by
// tests and the crash injector to model the volatile buffer being lost.
func (l *Log) DropUnsynced() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := l.synced; i < l.off; i++ {
		l.buf[i] = 0
	}
	l.off = l.synced
	l.lsn = l.lsnSynced
}

// Mark captures the append position for a later Rollback. It is only
// meaningful while the records after it are unsynced and the marker's owner
// is the only appender past it — the group-commit coordinator guarantees
// both by serializing appends and rolling back before any other committer
// appends behind the failed one.
type Mark struct {
	off int
	lsn uint64
}

// Mark returns the current append position.
func (l *Log) Mark() Mark {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Mark{off: l.off, lsn: l.lsn}
}

// Rollback discards the records appended after m — the caller's own partial
// tail, for backing out of a half-appended record set without touching the
// records of transactions batched before it. It fails if any record after
// the mark has already been synced.
func (l *Log) Rollback(m Mark) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if m.off < 0 || m.off > l.off {
		return fmt.Errorf("wal: rollback to invalid mark %d (off %d)", m.off, l.off)
	}
	if l.synced > m.off {
		return fmt.Errorf("wal: rollback past synced watermark (%d > %d)", l.synced, m.off)
	}
	for i := m.off; i < l.off; i++ {
		l.buf[i] = 0
	}
	l.off = m.off
	l.lsn = m.lsn
	return nil
}
