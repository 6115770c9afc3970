// Package txn implements the RHODOS transaction service (§6): file
// operations with transaction semantics — tbegin, tcreate, topen, tdelete,
// tread, tpread, twrite, tpwrite, tget-attribute, tlseek, tclose, tend and
// tabort — on top of the basic file service.
//
// Concurrency control is strict two-phase locking (§6.2) with the RO/IR/IW
// locks of Table 1 at record, page or file granularity (§6.1), provided by
// package lock, including its LT-timeout deadlock resolution (§6.4).
// During the first phase every update is recorded as a tentative data item
// in the transaction's intentions list (package intentions) — invisible to
// other transactions. At commit the intention flag moves to commit, the
// commit record reaches stable storage through the write-ahead log, and the
// changes are made permanent with the technique of §6.7: write-ahead logging
// when the file's blocks are contiguous (and always for record-mode
// intentions), the shadow-page technique otherwise. Locks are released only
// after the changes are permanent.
//
// The §6.6 stable-storage force is paid per *batch* of commits, not per
// commit (group commit; see DESIGN.md's commit-pipeline section and E19).
// End appends the transaction's commit records to the log, then joins the
// current batch — or opens one and becomes its leader. The leader waits out
// any in-flight sync (the commits that arrive during it form the next batch
// — that is where batching comes from — though their appends wait for the
// sync's write, which holds the log's mutex), issues one wal.Sync for every
// member, and wakes the followers; each member then applies its own
// intentions and releases its own locks. Configure with Config.Group
// (GroupCommitConfig); Disable restores one sync per commit.
//
// Concurrency and ownership contract: a Service is safe for concurrent use
// by any number of goroutines, but a single transaction is owned by one
// goroutine at a time — its operations must not race. Commit batching is
// internal: callers never share transaction state across End calls; a
// parked follower owns nothing until its leader's barrier resolves. If the
// leader dies at the barrier (crash injection), followers return
// ErrCommitInterrupted — the outcome is unknown until Recover replays the
// log, and the follower keeps its locks and log records until then. Log
// truncation runs only at quiescence: no open batch, no sync in flight,
// and every synced member done applying, so a checkpoint can never discard
// a commit record a parked committer still needs.
package txn

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/diskservice"
	"repro/internal/fault"
	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/intentions"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/wal"
)

// TxnID identifies a transaction.
type TxnID = lock.TxnID

// FileID is a file system name, as in the file service.
type FileID = fileservice.FileID

// update-record kinds packed into wal.Record.Disk. The kinds that carry out
// an intention come first, up to kindShadow.
const (
	kindRecord = 0 // byte-range after-image at Offset
	kindPage   = 1 // whole-block after-image of block Addr
	kindShadow = 2 // shadow swap: block Addr, staged at stable Offset, Data=[oldDisk:2]
	kindSize   = 3 // file size: Data = 8-byte big-endian size
	kindDelete = 4 // file deleted (tdelete)
)

// Errors.
var (
	// ErrNoTxn reports an unknown or finished transaction descriptor.
	ErrNoTxn = errors.New("txn: no such transaction")
	// ErrAborted reports that the transaction was aborted (possibly by the
	// deadlock timeout) and can no longer be used.
	ErrAborted = errors.New("txn: transaction aborted")
	// ErrNotOpenInTxn reports an operation on a file the transaction has not
	// opened with topen/tcreate.
	ErrNotOpenInTxn = errors.New("txn: file not open in this transaction")
	// ErrBadWhence reports an invalid tlseek whence.
	ErrBadWhence = errors.New("txn: bad whence")
)

// Whence values for LSeek.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// Config configures a Service.
type Config struct {
	// Files is the underlying basic file service. Required.
	Files *fileservice.Service
	// Log is the write-ahead log on stable storage. Required.
	Log *wal.Log
	// Locks is the lock manager (§6). Required. Its clock also times the
	// group-commit linger.
	Locks *lock.Manager
	// Metrics receives transaction counters. Optional.
	Metrics *metrics.Set
	// AdaptiveDefault, when set, picks the default lock level from how
	// frequently the file is used (§7: "to support default level of locking
	// it exploits the knowledge of how frequently a file is used"): files
	// opened often default to record level (maximize concurrency), rarely
	// used ones to file level (minimize lock overhead), the rest to page.
	AdaptiveDefault bool
	// ForceTechnique, when nonzero, overrides the §6.7 contiguity rule and
	// commits every page intention with the given technique (ablation E8).
	ForceTechnique intentions.Technique
	// Fault is the fault injector consulted at the commit sequence's crash
	// points. Optional; nil injects nothing.
	Fault *fault.Injector
	// Obs receives transaction-layer spans and latency observations.
	// Optional; nil disables tracing.
	Obs *obs.Recorder
	// Group configures group commit: batching concurrent End() callers'
	// commit records under one log sync. The zero value enables it with
	// defaults; set Group.Disable for the one-sync-per-commit baseline.
	Group GroupCommitConfig
}

// txnFile is a transaction's view of one open file.
type txnFile struct {
	id     FileID
	level  fit.LockLevel
	cursor int64
	// size is the transaction's tentative file size.
	size int64
	// baseBlocks is the file's block count at first touch; blocks at or
	// beyond it are new in this transaction and always commit via WAL.
	baseBlocks int
	// opened marks a file this transaction fs.Open-ed itself (as opposed to
	// a view inherited from an ancestor); released marks that open closed.
	opened, released bool
	// sizeRec is the size update the commit logs for the file.
	sizeRec [8]byte
}

// txnState is one live transaction.
type txnState struct {
	id  TxnID
	pid int
	// parent is the enclosing transaction for subtransactions (nil for
	// top-level); lockID is the top-level ancestor's id, the identity under
	// which the whole family holds its locks.
	parent *txnState
	lockID TxnID

	mu sync.Mutex
	// files are the transaction's views of its open files, in first-open
	// order; see setView for the entries past the end.
	files    []*txnFile
	list     *intentions.List
	created  []FileID
	deleted  []FileID
	children int
	kids     []*txnState
	// nested marks a transaction that began a subtransaction: a child holds
	// its state as the parent's, so the state is never reused.
	nested bool
	done   bool
	// recs is the commit's copy of the intentions; updates is the redo list
	// the commit logged, kept for apply.
	recs    []intentions.Record
	updates []update
	// page is the block a page-mode write builds its tentative page in;
	// SetIntention and stageShadow copy it, so one buffer serves every
	// write of the transaction and of the transactions reusing the state.
	page []byte
}

// maxFree bounds the finished states kept for reuse (Service.free).
const maxFree = 64

// lookup returns t's view of fid, nil when it has none. Callers hold t.mu.
func (t *txnState) lookup(fid FileID) *txnFile {
	for _, f := range t.files {
		if f.id == fid {
			return f
		}
	}
	return nil
}

// setView makes v t's view of its file: in the entry t has for the file
// (whose fs-level open, if it records one, stays recorded), else in a new
// one — the entry past the end that an earlier transaction on this state
// left there, when there is one. Callers hold t.mu.
func (t *txnState) setView(v txnFile) *txnFile {
	f := t.lookup(v.id)
	if f != nil {
		v.opened = v.opened || f.opened
	} else {
		if n := len(t.files); n < cap(t.files) && t.files[:n+1][n] != nil {
			t.files = t.files[:n+1]
			f = t.files[n]
		} else {
			f = new(txnFile)
			t.files = append(t.files, f)
		}
	}
	*f = v
	return f
}

// Service is the transaction service. It is safe for concurrent use; each
// individual transaction must be driven by one goroutine at a time.
type Service struct {
	fs       *fileservice.Service
	log      *wal.Log
	locks    *lock.Manager
	met      counters
	adaptive bool
	force    intentions.Technique

	mu     sync.Mutex
	txns   map[TxnID]*txnState
	nextID TxnID
	// fileUse counts transactions holding each file open, for flipping the
	// file's service classification (§2.2).
	fileUse map[FileID]int
	// openFreq counts topen calls per file, feeding the adaptive default
	// lock level (§7).
	openFreq map[FileID]int
	// uncommitted maps files created by a still-running transaction to that
	// transaction; other transactions may not open them.
	uncommitted map[FileID]TxnID

	// free holds finished top-level transactions' states for Begin to
	// reuse, and with them the storage of their views, lists and intentions,
	// which a warm transaction then does not allocate. A state's ID leaves
	// txns before the state joins free, so a call with an ended ID gets
	// ErrNoTxn; only the goroutine that drove the transaction held the state
	// itself, and it let go when End or Abort returned.
	free []*txnState

	// gc is the group-commit coordinator: it serializes commit-record
	// appends, batches concurrent committers under one log sync, and guards
	// log truncation (group.go).
	gc *groupCommit

	fault  *fault.Injector
	obsRec *obs.Recorder
}

// counters are the transaction counters, resolved from Config.Metrics in
// New.
type counters struct {
	committed, aborted, childAborted, groupWaits, groupBatches *metrics.Counter
}

func newCounters(set *metrics.Set) counters {
	return counters{
		committed:    set.Counter(metrics.TxnCommitted),
		aborted:      set.Counter(metrics.TxnAborted),
		childAborted: set.Counter(metricTxnChildAborted),
		groupWaits:   set.Counter(metrics.TxnGroupWaits),
		groupBatches: set.Counter(metrics.TxnGroupBatches),
	}
}

// defaultLevel is the lock level used when a file's attributes specify none.
const defaultLevel = fit.LockPage

// New creates a transaction service.
func New(cfg Config) (*Service, error) {
	if cfg.Files == nil {
		return nil, errors.New("txn: nil file service")
	}
	if cfg.Log == nil {
		return nil, errors.New("txn: nil log")
	}
	if cfg.Locks == nil {
		return nil, errors.New("txn: nil lock manager")
	}
	s := &Service{
		fs:          cfg.Files,
		log:         cfg.Log,
		locks:       cfg.Locks,
		met:         newCounters(cfg.Metrics),
		adaptive:    cfg.AdaptiveDefault,
		force:       cfg.ForceTechnique,
		fault:       cfg.Fault,
		obsRec:      cfg.Obs,
		txns:        make(map[TxnID]*txnState),
		fileUse:     make(map[FileID]int),
		openFreq:    make(map[FileID]int),
		uncommitted: make(map[FileID]TxnID),
	}
	s.gc = newGroupCommit(s, cfg.Group)
	return s, nil
}

// Begin starts a transaction (tbegin) on behalf of process pid and returns
// its transaction descriptor.
func (s *Service) Begin(pid int) (TxnID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	id := s.nextID
	n := len(s.free)
	if n == 0 {
		s.txns[id] = &txnState{id: id, pid: pid, lockID: id, list: intentions.NewList(uint64(id))}
		return id, nil
	}
	t := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	t.id, t.pid, t.lockID, t.done = id, pid, id, false
	t.files, t.created, t.deleted = t.files[:0], t.created[:0], t.deleted[:0]
	// The previous commit's copies point into its intention bytes, which
	// the list may drop; let them go.
	clear(t.recs[:cap(t.recs)])
	clear(t.updates[:cap(t.updates)])
	t.recs, t.updates = t.recs[:0], t.updates[:0]
	t.list.Reset(uint64(id))
	s.txns[id] = t
	return id, nil
}

// get returns the live transaction or an error.
func (s *Service) get(id TxnID) (*txnState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.txns[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoTxn, id)
	}
	return t, nil
}

// lockErr converts a lock-manager failure: a broken transaction is aborted
// on the spot (§6.4: "its lock is broken and the transaction is aborted").
// Locks belong to the top-level ancestor, so breakage dooms the whole
// family.
func (s *Service) lockErr(t *txnState, err error) error {
	if errors.Is(err, lock.ErrTxnBroken) {
		root := t
		for root.parent != nil {
			root = root.parent
		}
		s.abort(root)
		return fmt.Errorf("%w: deadlock timeout", ErrAborted)
	}
	return err
}

// lockLevel maps a fit lock level to the lock manager's Level.
func lockLevel(l fit.LockLevel) lock.Level {
	switch l {
	case fit.LockRecord:
		return lock.Record
	case fit.LockFile:
		return lock.File
	default:
		return lock.Page
	}
}

// Create creates a new file under transaction semantics (tcreate), holding
// an exclusive file lock until the transaction ends. On abort the file is
// removed.
func (s *Service) Create(id TxnID, attr fit.Attributes) (FileID, error) {
	t, err := s.get(id)
	if err != nil {
		return 0, err
	}
	attr.Service = fit.ServiceTransaction
	if attr.Locking == fit.LockNone {
		attr.Locking = defaultLevel
	}
	fid, err := s.fs.Create(attr)
	if err != nil {
		return 0, err
	}
	if err := s.fs.Open(fid); err != nil {
		return 0, err
	}
	t.mu.Lock()
	t.setView(txnFile{id: fid, level: attr.Locking, opened: true})
	t.created = append(t.created, fid)
	t.mu.Unlock()
	// The file is invisible to other transactions until this one commits;
	// no lock is needed because Open refuses uncommitted files.
	s.mu.Lock()
	s.uncommitted[fid] = id
	s.mu.Unlock()
	s.noteOpen(fid)
	return fid, nil
}

// Open opens an existing file for the transaction (topen). level selects
// the locking granularity; LockNone uses the file's recorded level, or the
// service default.
func (s *Service) Open(id TxnID, fid FileID, level fit.LockLevel) error {
	t, err := s.get(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if owner, ok := s.uncommitted[fid]; ok && !s.sameFamily(owner, id) {
		s.mu.Unlock()
		return fmt.Errorf("%w: id %d (uncommitted)", fileservice.ErrNotFound, fid)
	}
	s.mu.Unlock()
	// A file the transaction already has a view of is only re-levelled: the
	// file service is not opened again, so the view's one release at End
	// balances its one open, and the tentative size and cursor stay.
	t.mu.Lock()
	if f := t.lookup(fid); f != nil {
		if level != fit.LockNone {
			f.level = level
		}
		t.mu.Unlock()
		return nil
	}
	t.mu.Unlock()
	// A subtransaction opening a file an ancestor already holds inherits the
	// ancestor's view (and its fs-level open).
	if v, ok := t.inheritedFile(fid); ok {
		if level != fit.LockNone {
			v.level = level
		}
		t.mu.Lock()
		t.setView(v)
		t.mu.Unlock()
		return nil
	}
	attr, err := s.fs.Attributes(fid)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.openFreq[fid]++
	freq := s.openFreq[fid]
	s.mu.Unlock()
	if level == fit.LockNone {
		level = attr.Locking
	}
	if level == fit.LockNone {
		if s.adaptive {
			level = adaptiveLevel(freq)
		} else {
			level = defaultLevel
		}
	}
	if err := s.fs.Open(fid); err != nil {
		return err
	}
	blocks, err := s.fs.BlockCount(fid)
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.setView(txnFile{id: fid, level: level, size: int64(attr.Size), baseBlocks: blocks, opened: true})
	t.mu.Unlock()
	s.noteOpen(fid)
	return nil
}

// adaptiveLevel maps a file's open frequency to a default lock level (§7):
// hot files get fine granularity for concurrency, cold files get coarse
// granularity for low locking overhead.
func adaptiveLevel(openCount int) fit.LockLevel {
	switch {
	case openCount >= 8:
		return fit.LockRecord
	case openCount >= 3:
		return fit.LockPage
	default:
		return fit.LockFile
	}
}

// noteOpen flips the file to transaction-service semantics while any
// transaction has it open (§2.2's by-use classification).
func (s *Service) noteOpen(fid FileID) {
	s.mu.Lock()
	s.fileUse[fid]++
	first := s.fileUse[fid] == 1
	s.mu.Unlock()
	if first {
		_ = s.fs.SetService(fid, fit.ServiceTransaction)
	}
}

func (s *Service) noteClose(fid FileID) {
	s.mu.Lock()
	s.fileUse[fid]--
	last := s.fileUse[fid] == 0
	if last {
		delete(s.fileUse, fid)
	}
	s.mu.Unlock()
	if last {
		_ = s.fs.SetService(fid, fit.ServiceBasic)
	}
}

// file returns the transaction's view of an open file, inheriting (and
// cloning) the view from an ancestor for subtransactions.
func (t *txnState) file(fid FileID) (*txnFile, error) {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return nil, ErrAborted
	}
	if f := t.lookup(fid); f != nil {
		t.mu.Unlock()
		return f, nil
	}
	t.mu.Unlock()
	if v, ok := t.inheritedFile(fid); ok {
		t.mu.Lock()
		f := t.setView(v)
		t.mu.Unlock()
		return f, nil
	}
	return nil, fmt.Errorf("%w: file %d", ErrNotOpenInTxn, fid)
}

// Delete marks a file for deletion at commit (tdelete), taking an exclusive
// file-level lock. The file must be opened in the transaction first.
func (s *Service) Delete(id TxnID, fid FileID) error {
	t, err := s.get(id)
	if err != nil {
		return err
	}
	f, err := t.file(fid)
	if err != nil {
		return err
	}
	item := lock.ItemID{File: uint64(fid)}
	if err := s.locks.Acquire(context.Background(), t.lockID, t.pid, lockLevel(f.level), fileWideItem(f.level, item), lock.IWrite); err != nil {
		return s.lockErr(t, err)
	}
	t.mu.Lock()
	t.deleted = append(t.deleted, fid)
	t.mu.Unlock()
	return nil
}

// fileWideItem widens an item to cover the whole file at the given level
// (used by tdelete, which must conflict with everything).
func fileWideItem(level fit.LockLevel, item lock.ItemID) lock.ItemID {
	// At file level the item is already the whole file. At page/record
	// levels a whole-file conflict cannot be expressed as one item without
	// violating the one-level rule, so we lock the file's level-appropriate
	// "everything" item: for record level a maximal range, for page level we
	// settle for page 0 plus relying on commit-time application.
	switch level {
	case fit.LockRecord:
		return lock.ItemID{File: item.File, Offset: 0, Length: ^uint64(0)}
	default:
		return item
	}
}

// lockRangeLocked acquires the locks an access of [off, off+n) needs, per
// the file's granularity.
func (s *Service) lockRange(ctx context.Context, t *txnState, f *txnFile, off int64, n int, mode lock.Mode) error {
	if n <= 0 {
		return nil
	}
	switch f.level {
	case fit.LockFile:
		return s.locks.Acquire(ctx, t.lockID, t.pid, lock.File, lock.ItemID{File: uint64(f.id)}, mode)
	case fit.LockRecord:
		return s.locks.Acquire(ctx, t.lockID, t.pid, lock.Record,
			lock.ItemID{File: uint64(f.id), Offset: uint64(off), Length: uint64(n)}, mode)
	default: // page
		first := off / fileservice.BlockSize
		last := (off + int64(n) - 1) / fileservice.BlockSize
		for b := first; b <= last; b++ {
			if err := s.locks.Acquire(ctx, t.lockID, t.pid, lock.Page,
				lock.ItemID{File: uint64(f.id), Offset: uint64(b)}, mode); err != nil {
				return err
			}
		}
		return nil
	}
}

// PReadCtx reads n bytes at offset off (tpread). forUpdate takes an Iread
// lock instead of read-only, for data the transaction intends to modify
// (§6.3). The transaction layer is an entry point when driven directly and
// interior under an agent, so the bracket is a root if ctx carries no span.
func (s *Service) PReadCtx(ctx context.Context, id TxnID, fid FileID, off int64, n int, forUpdate bool) ([]byte, error) {
	ctx, sp := s.obsRec.StartOr(ctx, obs.LayerTxn, "pread")
	sp.SetTxn(uint64(id))
	sp.SetFile(uint64(fid))
	data, err := s.pread(ctx, id, fid, off, n, forUpdate)
	sp.AddBytes(len(data))
	sp.End(err)
	return data, err
}

func (s *Service) pread(ctx context.Context, id TxnID, fid FileID, off int64, n int, forUpdate bool) ([]byte, error) {
	t, err := s.get(id)
	if err != nil {
		return nil, err
	}
	f, err := t.file(fid)
	if err != nil {
		return nil, err
	}
	if off < 0 || n < 0 {
		return nil, fileservice.ErrBadOffset
	}
	t.mu.Lock()
	size := f.size
	t.mu.Unlock()
	if off >= size {
		return nil, nil
	}
	if off+int64(n) > size {
		n = int(size - off)
	}
	mode := lock.ReadOnly
	if forUpdate {
		mode = lock.IRead
	}
	if err := s.lockRange(ctx, t, f, off, n, mode); err != nil {
		return nil, s.lockErr(t, err)
	}
	return s.readView(ctx, t, f, off, n)
}

// readView builds the transaction's view in the buffer it returns:
// committed bytes overlaid with every ancestor's tentative writes (root
// first) and then its own.
func (s *Service) readView(ctx context.Context, t *txnState, f *txnFile, off int64, n int) ([]byte, error) {
	buf := make([]byte, n)
	if _, err := s.fs.ReadAtInto(ctx, f.id, off, buf); err != nil && !errors.Is(err, fileservice.ErrNotFound) {
		return nil, err
	}
	t.overlay(f.id, off, buf)
	return buf, nil
}

// Read reads n bytes at the cursor (tread), advancing it.
func (s *Service) Read(id TxnID, fid FileID, n int, forUpdate bool) ([]byte, error) {
	t, err := s.get(id)
	if err != nil {
		return nil, err
	}
	f, err := t.file(fid)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	off := f.cursor
	t.mu.Unlock()
	data, err := s.PReadCtx(context.Background(), id, fid, off, n, forUpdate)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	f.cursor = off + int64(len(data))
	t.mu.Unlock()
	return data, nil
}

// PWriteCtx writes data at offset off (tpwrite), recording tentative data
// items in the intentions list; nothing reaches the committed file until
// tend.
func (s *Service) PWriteCtx(ctx context.Context, id TxnID, fid FileID, off int64, data []byte) (int, error) {
	ctx, sp := s.obsRec.StartOr(ctx, obs.LayerTxn, "pwrite")
	sp.SetTxn(uint64(id))
	sp.SetFile(uint64(fid))
	sp.AddBytes(len(data))
	n, err := s.pwrite(ctx, id, fid, off, data)
	sp.End(err)
	return n, err
}

func (s *Service) pwrite(ctx context.Context, id TxnID, fid FileID, off int64, data []byte) (int, error) {
	t, err := s.get(id)
	if err != nil {
		return 0, err
	}
	f, err := t.file(fid)
	if err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fileservice.ErrBadOffset
	}
	if len(data) == 0 {
		return 0, nil
	}
	if err := s.lockRange(ctx, t, f, off, len(data), lock.IWrite); err != nil {
		return 0, s.lockErr(t, err)
	}

	if f.level == fit.LockRecord {
		// Record mode: the tentative data item is the exact byte range.
		if err := t.list.SetIntention(intentions.Record{
			File: uint64(f.id), Kind: intentions.RecordKind,
			Offset: off, Length: len(data), Data: data,
		}); err != nil {
			return 0, err
		}
	} else {
		// Page/file mode: tentative data items are whole pages (§6.7).
		first := off / fileservice.BlockSize
		last := (off + int64(len(data)) - 1) / fileservice.BlockSize
		for b := first; b <= last; b++ {
			page, err := s.tentativePage(ctx, t, f, int(b))
			if err != nil {
				return 0, err
			}
			lo := b * fileservice.BlockSize
			from := lo
			if off > from {
				from = off
			}
			to := lo + fileservice.BlockSize
			if end := off + int64(len(data)); end < to {
				to = end
			}
			copy(page[from-lo:to-lo], data[from-off:to-off])
			if err := t.list.SetIntention(intentions.Record{
				File: uint64(f.id), Kind: intentions.PageKind, Block: int(b), Data: page,
			}); err != nil {
				return 0, err
			}
			if err := s.stageShadow(f, int(b), page); err != nil {
				return 0, err
			}
		}
	}
	t.mu.Lock()
	if end := off + int64(len(data)); end > f.size {
		f.size = end
	}
	t.mu.Unlock()
	return len(data), nil
}

// tentativePage returns the transaction's current view of one whole block,
// including ancestors' tentative data for subtransactions, in t's page
// buffer: valid until t's next page-mode write. The bytes past the
// committed end of the file read as zeros.
func (s *Service) tentativePage(ctx context.Context, t *txnState, f *txnFile, blk int) ([]byte, error) {
	if t.page == nil {
		t.page = make([]byte, fileservice.BlockSize)
	}
	page := t.page
	off := int64(blk) * fileservice.BlockSize
	n, err := s.fs.ReadAtInto(ctx, f.id, off, page)
	if err != nil {
		return nil, err
	}
	clear(page[n:])
	t.overlay(f.id, off, page)
	return page, nil
}

// stageShadow saves a tentative page exclusively on stable storage at the
// block's current address — §4's shadow-page flavour of put-block — so a
// shadow commit after a crash can find the data.
func (s *Service) stageShadow(f *txnFile, blk int, page []byte) error {
	if blk >= f.baseBlocks {
		return nil // new block: no original location yet; commits via WAL
	}
	disk, addr, err := s.fs.BlockLocation(f.id, blk)
	if err != nil {
		return err
	}
	return s.fs.DiskServer(int(disk)).Put(context.Background(), int(addr), page, diskservice.PutOptions{
		Stability: diskservice.StableOnly, WaitStable: true,
	})

}

// Write writes at the cursor (twrite), advancing it.
func (s *Service) Write(id TxnID, fid FileID, data []byte) (int, error) {
	t, err := s.get(id)
	if err != nil {
		return 0, err
	}
	f, err := t.file(fid)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	off := f.cursor
	t.mu.Unlock()
	n, err := s.PWriteCtx(context.Background(), id, fid, off, data)
	if err != nil {
		return n, err
	}
	t.mu.Lock()
	f.cursor = off + int64(n)
	t.mu.Unlock()
	return n, nil
}

// GetAttribute returns the file's attributes as this transaction sees them
// (tget-attribute): the tentative size overlays the committed one.
func (s *Service) GetAttribute(id TxnID, fid FileID) (fit.Attributes, error) {
	t, err := s.get(id)
	if err != nil {
		return fit.Attributes{}, err
	}
	f, err := t.file(fid)
	if err != nil {
		return fit.Attributes{}, err
	}
	attr, err := s.fs.Attributes(fid)
	if err != nil {
		return fit.Attributes{}, err
	}
	t.mu.Lock()
	attr.Size = uint64(f.size)
	t.mu.Unlock()
	return attr, nil
}

// LSeek moves the cursor (tlseek) and returns the new position.
func (s *Service) LSeek(id TxnID, fid FileID, off int64, whence int) (int64, error) {
	t, err := s.get(id)
	if err != nil {
		return 0, err
	}
	f, err := t.file(fid)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var pos int64
	switch whence {
	case SeekSet:
		pos = off
	case SeekCur:
		pos = f.cursor + off
	case SeekEnd:
		pos = f.size + off
	default:
		return 0, fmt.Errorf("%w: %d", ErrBadWhence, whence)
	}
	if pos < 0 {
		return 0, fileservice.ErrBadOffset
	}
	f.cursor = pos
	return pos, nil
}

// CloseFile drops the transaction's cursor on a file (tclose). Locks are
// retained until tend/tabort — strict two-phase locking (§6.2).
func (s *Service) CloseFile(id TxnID, fid FileID) error {
	t, err := s.get(id)
	if err != nil {
		return err
	}
	if _, err := t.file(fid); err != nil {
		return err
	}
	// The view (and its intentions) must survive until commit; only the
	// cursor becomes unusable. We keep the state and simply note the close.
	return nil
}
