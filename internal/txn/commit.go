package txn

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/diskservice"
	"repro/internal/fault"
	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/intentions"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/wal"
)

// Fault points along the commit sequence of §6.7. before-log is the last
// instant at which the transaction can still vanish without trace; after-log
// the commit record is durable but nothing is applied in place; mid-apply
// dies between two in-place applications (arm with After to choose which);
// after-apply dies with everything applied but locks still held and the
// intentions list not yet retired.
var (
	PtCommitBeforeLog  = fault.Register("txn.commit.before-log")
	PtCommitAfterLog   = fault.Register("txn.commit.after-log")
	PtCommitMidApply   = fault.Register("txn.commit.mid-apply")
	PtCommitAfterApply = fault.Register("txn.commit.after-apply")
)

// EndCtx commits the transaction (tend): the intention flag moves to commit,
// the commit record reaches stable storage, the intentions are made
// permanent (WAL or shadow page per §6.7), and only then are the locks
// released — the second phase of strict 2PL. If a fault-injected crash cuts
// the commit sequence short, a traced commit's span stays in-flight and the
// flight recorder's fault dump captures the interrupted commit mid-operation.
func (s *Service) EndCtx(ctx context.Context, id TxnID) error {
	ctx, sp := s.obsRec.StartOr(ctx, obs.LayerTxn, "end")
	sp.SetTxn(uint64(id))
	err := s.end(ctx, id)
	sp.End(err)
	return err
}

func (s *Service) end(ctx context.Context, id TxnID) error {
	t, err := s.get(id)
	if err != nil {
		return err
	}
	if s.locks.Broken(t.lockID) {
		root := t
		for root.parent != nil {
			root = root.parent
		}
		s.abort(root)
		return fmt.Errorf("%w: deadlock timeout", ErrAborted)
	}
	if t.parent != nil {
		return s.endChild(t)
	}
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return ErrAborted
	}
	if t.children > 0 {
		t.mu.Unlock()
		return ErrLiveChildren
	}
	t.mu.Unlock()

	// Decide the technique for every intention (§6.7): WAL for record mode
	// and contiguously stored files, shadow page otherwise.
	t.list.AssignTechniques(func(file uint64) bool {
		switch s.force {
		case intentions.WAL:
			return true
		case intentions.ShadowPage:
			return false
		}
		exts, err := s.fs.Extents(FileID(file))
		if err != nil {
			return true
		}
		return len(exts) <= 1
	})
	t.list.AdjustTechniques(func(r intentions.Record) intentions.Technique {
		if r.Kind == intentions.PageKind && r.Technique == intentions.ShadowPage {
			if _, _, err := s.fs.BlockLocation(FileID(r.File), r.Block); err != nil {
				// A block new in this transaction has no original location to
				// shadow; it commits through the log.
				return intentions.WAL
			}
		}
		return r.Technique
	})

	s.fault.Hit(PtCommitBeforeLog)
	if err := s.gc.commit(ctx, t); err != nil {
		if errors.Is(err, ErrCommitInterrupted) {
			// The batch leader crashed with our commit record possibly
			// durable: the outcome is unknown until recovery, so hold the
			// locks and the log records rather than aborting.
			return err
		}
		// The commit never reached stable storage: abort cleanly. The
		// coordinator already backed our records out of the log.
		s.abort(t)
		return fmt.Errorf("%w: commit logging failed: %v", ErrAborted, err)
	}
	// The commit point has passed; the transaction is durably committed.
	// From here on the transaction owes the coordinator one applied() call,
	// which it withholds on the recoverable paths below so the log keeps the
	// redo records until recovery.
	_ = t.list.SetStatus(intentions.Committed)
	s.fault.Hit(PtCommitAfterLog)
	if err := s.applyIntentions(t); err != nil {
		// Redo will finish the job at recovery; report but do not abort.
		return fmt.Errorf("txn: committed but application incomplete (recoverable): %w", err)
	}
	s.fault.Hit(PtCommitAfterApply)
	s.finish(t)
	s.gc.applied()
	s.met.Inc(metrics.TxnCommitted)
	s.maybeTruncateLog()
	return nil
}

// writeCommitRecords appends the transaction's redo records and its commit
// record. It does NOT sync: the group-commit coordinator (group.go) owns the
// barrier, batching many transactions' records under one wal.Sync. On any
// error (including wal.ErrLogFull) it returns immediately; the coordinator
// rolls the partial append back and handles log-full recovery.
func (s *Service) writeCommitRecords(t *txnState) error {
	recs := t.list.GetIntentions()
	append1 := func(r wal.Record) error {
		_, err := s.log.Append(r)
		return err
	}
	for _, rec := range recs {
		switch {
		case rec.Kind == intentions.RecordKind:
			if err := append1(wal.Record{
				Type: wal.RecUpdate, Txn: uint64(t.id), File: rec.File,
				Disk: kindRecord, Offset: uint32(rec.Offset), Data: rec.Data,
			}); err != nil {
				return err
			}
		case rec.Technique == intentions.ShadowPage:
			// Shadow data is already staged on stable storage at the block's
			// old address; log only the swap descriptor.
			disk, addr, err := s.fs.BlockLocation(FileID(rec.File), rec.Block)
			if err != nil {
				return err
			}
			var payload [2]byte
			binary.BigEndian.PutUint16(payload[:], disk)
			if err := append1(wal.Record{
				Type: wal.RecUpdate, Txn: uint64(t.id), File: rec.File,
				Disk: kindShadow, Addr: uint32(rec.Block), Offset: addr, Data: payload[:],
			}); err != nil {
				return err
			}
			// Restage the final page image (intervening writes may have
			// updated the intention since the last stage).
			if err := s.fs.DiskServer(int(disk)).Put(context.Background(), int(addr), rec.Data, diskservice.PutOptions{
				Stability: diskservice.StableOnly, WaitStable: true,
			}); err != nil {
				return err
			}
		default: // page intention via WAL
			if err := append1(wal.Record{
				Type: wal.RecUpdate, Txn: uint64(t.id), File: rec.File,
				Disk: kindPage, Addr: uint32(rec.Block), Data: rec.Data,
			}); err != nil {
				return err
			}
		}
	}
	// File sizes, so page-mode growth survives recovery.
	t.mu.Lock()
	type fsize struct {
		fid  FileID
		size int64
	}
	var sizes []fsize
	for fid, f := range t.files {
		sizes = append(sizes, fsize{fid, f.size})
	}
	t.mu.Unlock()
	for _, fs := range sizes {
		var payload [8]byte
		binary.BigEndian.PutUint64(payload[:], uint64(fs.size))
		if err := append1(wal.Record{
			Type: wal.RecUpdate, Txn: uint64(t.id), File: uint64(fs.fid),
			Disk: kindSize, Data: payload[:],
		}); err != nil {
			return err
		}
	}
	return append1(wal.Record{Type: wal.RecCommit, Txn: uint64(t.id)})
}

// applyIntentions makes the committed changes permanent and deletes the
// intention records (§6.7). A file's record intentions are carried out as a
// unit: one fileservice.Service.WriteRuns call patches them all into the
// cached blocks, flushes each block they touched once and writes the FIT at
// most once. Page intentions keep their one-at-a-time path (the logged
// image written through in place, or the shadow swap). PtCommitMidApply is
// hit before each file's pass and before each page.
func (s *Service) applyIntentions(t *txnState) error {
	recs := t.list.GetIntentions()
	var runBuf [4]fileservice.Run // a record commit rewrites a record or two per file
	var seqBuf [4]int
	for i, rec := range recs {
		if rec.Seq < 0 {
			continue // carried out with an earlier record of its file
		}
		s.fault.Hit(PtCommitMidApply)
		if rec.Kind != intentions.RecordKind {
			if err := s.applyPage(rec); err != nil {
				return err
			}
			t.list.RemoveIntentions(rec.Seq)
			continue
		}
		runs, seqs := runBuf[:0], seqBuf[:0]
		for j := i; j < len(recs); j++ {
			r := &recs[j]
			if r.File != rec.File || r.Seq < 0 {
				continue
			}
			if r.Kind != intentions.RecordKind {
				break // a later page image of the file applies in its own turn
			}
			runs = append(runs, fileservice.Run{Off: r.Offset, Data: r.Data})
			seqs = append(seqs, r.Seq)
			r.Seq = -1
		}
		if _, err := s.fs.WriteRuns(context.Background(), FileID(rec.File), runs); err != nil {
			return err
		}
		t.list.RemoveIntentions(seqs...)
	}
	// Apply tentative sizes (page-mode writes do not move the size).
	t.mu.Lock()
	files := make([]*txnFile, 0, len(t.files))
	for _, f := range t.files {
		files = append(files, f)
	}
	deleted := append([]FileID(nil), t.deleted...)
	t.mu.Unlock()
	for _, f := range files {
		cur, err := s.fs.Size(f.id)
		if err != nil {
			return err
		}
		if cur != f.size {
			if err := s.fs.Truncate(f.id, f.size); err != nil {
				return err
			}
		}
	}
	for _, fid := range deleted {
		s.releaseFile(t, fid)
		if err := s.fs.Delete(fid); err != nil && !errors.Is(err, fileservice.ErrNotFound) {
			return err
		}
	}
	return nil
}

// applyPage makes one page intention permanent: the shadow swap, or the
// logged image written through in place.
func (s *Service) applyPage(rec intentions.Record) error {
	fid := FileID(rec.File)
	if rec.Technique != intentions.ShadowPage {
		return s.fs.WriteBlockThrough(fid, rec.Block, rec.Data)
	}
	disk, _, err := s.fs.BlockLocation(fid, rec.Block)
	if err != nil {
		return err
	}
	newAddr, err := s.fs.DiskServer(int(disk)).AllocateBlocks(1)
	if err != nil {
		return err
	}
	if err := s.fs.DiskServer(int(disk)).Put(context.Background(), newAddr, rec.Data, diskservice.PutOptions{}); err != nil {
		return err
	}
	return s.fs.ReplaceBlockDescriptor(fid, rec.Block, fit.Extent{
		Disk: disk, Addr: uint32(newAddr), Count: 1,
	})
}

// finish releases everything a completed transaction holds: file opens,
// service classification, locks, and the transaction entry itself.
func (s *Service) finish(t *txnState) {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	files := make([]FileID, 0, len(t.files))
	for fid := range t.files {
		files = append(files, fid)
	}
	created := append([]FileID(nil), t.created...)
	t.mu.Unlock()
	for _, fid := range files {
		s.releaseFile(t, fid) // idempotent: already-released files are skipped
	}
	s.locks.ReleaseAll(t.lockID)
	s.mu.Lock()
	for _, fid := range created {
		delete(s.uncommitted, fid)
	}
	delete(s.txns, t.id)
	s.mu.Unlock()
}

// releaseFile closes one file's service-level open exactly once.
func (s *Service) releaseFile(t *txnState, fid FileID) {
	t.mu.Lock()
	if t.released == nil {
		t.released = map[FileID]bool{}
	}
	if t.released[fid] {
		t.mu.Unlock()
		return
	}
	t.released[fid] = true
	t.mu.Unlock()
	_ = s.fs.Close(fid)
	s.noteClose(fid)
}

// Abort rolls the transaction back (tabort): tentative data is discarded,
// files created inside the transaction are removed, and locks are released.
func (s *Service) Abort(id TxnID) error {
	t, err := s.get(id)
	if err != nil {
		return err
	}
	s.abort(t)
	return nil
}

func (s *Service) abort(t *txnState) {
	if t.parent != nil {
		s.abortChild(t)
		return
	}
	// Cascade: live subtransactions die with their ancestor.
	t.mu.Lock()
	kids := append([]*txnState(nil), t.kids...)
	t.mu.Unlock()
	for _, k := range kids {
		s.abortChild(k)
	}
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	created := append([]FileID(nil), t.created...)
	t.mu.Unlock()
	_ = t.list.SetStatus(intentions.Aborted)
	for _, fid := range created {
		s.releaseFile(t, fid)
		_ = s.fs.Delete(fid)
	}
	s.finish(t)
	s.met.Inc(metrics.TxnAborted)
}

// maybeTruncateLog resets the log once it is more than half full — but only
// from a quiescent state. With group commit, other transactions' records may
// sit in the log synced-but-unapplied (their batch is durable while they are
// still applying intentions, or their leader crashed before waking them), and
// those records MUST survive until redo can no longer need them.
// beginTruncation atomically verifies no batch is forming, no sync is in
// flight, and every batched commit has applied its intentions; until
// endTruncation, new committers wait.
func (s *Service) maybeTruncateLog() {
	if s.log.AppendedBytes() <= s.log.Capacity()/2 {
		return
	}
	if !s.gc.beginTruncation() {
		return // another commit is in flight; a later End will retry
	}
	defer s.gc.endTruncation()
	if err := s.fs.Flush(); err != nil {
		return // keep the log; redo still possible
	}
	_, _ = s.log.Append(wal.Record{Type: wal.RecCheckpoint})
	_ = s.log.Reset()
}

// Recover replays the write-ahead log after a crash: the updates of
// committed transactions are redone (idempotently), tentative data of
// unfinished transactions is discarded, and the log is truncated. Call it
// on a freshly mounted Service before accepting new transactions.
func (s *Service) Recover() (committed int, err error) {
	// Forget any pre-crash group-commit state: parked followers are gone and
	// their unapplied counts with them; redo below settles their outcomes.
	s.gc.reset()
	type txnLog struct {
		updates   []wal.Record
		committed bool
	}
	logs := map[uint64]*txnLog{}
	var order []uint64
	err = s.log.Replay(func(r wal.Record) error {
		switch r.Type {
		case wal.RecUpdate:
			tl := logs[r.Txn]
			if tl == nil {
				tl = &txnLog{}
				logs[r.Txn] = tl
				order = append(order, r.Txn)
			}
			tl.updates = append(tl.updates, r)
		case wal.RecCommit:
			if tl := logs[r.Txn]; tl != nil {
				tl.committed = true
			}
		case wal.RecAbort:
			delete(logs, r.Txn)
		case wal.RecCheckpoint:
			// Everything before this point is applied; forget it.
			logs = map[uint64]*txnLog{}
			order = nil
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	for _, txn := range order {
		tl := logs[txn]
		if tl == nil || !tl.committed {
			continue
		}
		for _, r := range tl.updates {
			if err := s.redo(r); err != nil {
				return committed, fmt.Errorf("txn: redo of txn %d: %w", txn, err)
			}
		}
		committed++
	}
	if err := s.fs.Flush(); err != nil {
		return committed, err
	}
	if err := s.log.Reset(); err != nil {
		return committed, err
	}
	return committed, nil
}

// redo re-applies one logged update idempotently.
func (s *Service) redo(r wal.Record) error {
	fid := FileID(r.File)
	switch r.Disk {
	case kindRecord:
		_, err := s.fs.WriteAtCtx(context.Background(), fid, int64(r.Offset), r.Data)
		if errors.Is(err, fileservice.ErrNotFound) {
			return nil // file deleted later; nothing to redo
		}
		return err
	case kindPage:
		err := s.fs.WriteBlockThrough(fid, int(r.Addr), r.Data)
		if errors.Is(err, fileservice.ErrNotFound) {
			return nil
		}
		return err
	case kindSize:
		size := int64(binary.BigEndian.Uint64(r.Data))
		cur, err := s.fs.Size(fid)
		if errors.Is(err, fileservice.ErrNotFound) {
			return nil
		}
		if err != nil {
			return err
		}
		if cur != size {
			return s.fs.Truncate(fid, size)
		}
		return nil
	case kindShadow:
		oldDisk := binary.BigEndian.Uint16(r.Data)
		oldAddr := r.Offset
		blk := int(r.Addr)
		curDisk, curAddr, err := s.fs.BlockLocation(fid, blk)
		if errors.Is(err, fileservice.ErrNotFound) || errors.Is(err, fileservice.ErrBadRequest) {
			return nil
		}
		if err != nil {
			return err
		}
		if curDisk != oldDisk || curAddr != oldAddr {
			return nil // swap already applied before the crash
		}
		staged, err := s.fs.DiskServer(int(oldDisk)).Get(context.Background(), int(oldAddr),
			fileservice.FragmentsPerBlock, diskservice.GetOptions{FromStable: true})

		if err != nil {
			return err
		}
		newAddr, err := s.fs.DiskServer(int(oldDisk)).AllocateBlocks(1)
		if err != nil {
			return err
		}
		if err := s.fs.DiskServer(int(oldDisk)).Put(context.Background(), newAddr, staged, diskservice.PutOptions{}); err != nil {
			return err
		}
		return s.fs.ReplaceBlockDescriptor(fid, blk, fit.Extent{
			Disk: oldDisk, Addr: uint32(newAddr), Count: 1,
		})
	default:
		return fmt.Errorf("txn: unknown update kind %d", r.Disk)
	}
}
