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
	if err := s.apply(t, t.updates); err != nil {
		// Redo will finish the job at recovery; report but do not abort.
		return fmt.Errorf("txn: committed but application incomplete (recoverable): %w", err)
	}
	s.fault.Hit(PtCommitAfterApply)
	s.finish(t)
	s.gc.applied()
	s.met.committed.Inc()
	s.maybeTruncateLog()
	return nil
}

// update is one entry of a committed transaction's redo list: one record
// the commit logs, as writeCommitRecords built it or Recover read it back.
// apply carries a list of them out, so what reaches the log and what the
// commit makes permanent are the same thing.
type update struct {
	wal.Record
	// seq is the intention the update carries out, for RemoveIntentions at
	// commit; sizes, deletes and every update Recover reads back have none.
	seq int
	// image is a shadow swap's page image as the commit holds it; nil in
	// Recover, which reads the staged copy back from stable storage.
	image []byte
	// done marks a record run already written with an earlier run of its
	// file.
	done bool
}

// writeCommitRecords builds the transaction's ordered update list — record
// runs, logged pages and shadow swaps in intention order, then the
// tentative sizes, then the deletes — appends it and the commit record to
// the log, and keeps it in t.updates for apply. The list, like the copy of
// the intentions it is built from, lives in storage the transaction's state
// keeps, and its records' data is the intentions' own bytes and the views'
// size fields, which stay put until the state is reused after apply. It
// does NOT sync: the group-commit coordinator (group.go) owns the barrier,
// batching many transactions' records under one wal.Sync. On any error
// (including wal.ErrLogFull) it returns immediately; the coordinator rolls
// the partial append back and handles log-full recovery.
func (s *Service) writeCommitRecords(t *txnState) error {
	recs := t.list.AppendIntentions(t.recs[:0])
	t.recs = recs
	t.mu.Lock()
	ups := append(t.updates[:0], make([]update, len(recs))...)
	// File sizes, so page-mode growth survives recovery.
	for _, f := range t.files {
		binary.BigEndian.PutUint64(f.sizeRec[:], uint64(f.size))
		ups = append(ups, update{Record: wal.Record{File: uint64(f.id), Disk: kindSize, Data: f.sizeRec[:]}})
	}
	for _, fid := range t.deleted {
		ups = append(ups, update{Record: wal.Record{File: uint64(fid), Disk: kindDelete}})
	}
	t.mu.Unlock()
	t.updates = ups
	for i, rec := range recs {
		u := &ups[i]
		u.File, u.Data, u.seq = rec.File, rec.Data, rec.Seq
		switch {
		case rec.Kind == intentions.RecordKind:
			u.Disk, u.Offset = kindRecord, uint32(rec.Offset)
		case rec.Technique == intentions.ShadowPage:
			// Shadow data is already staged on stable storage at the block's
			// old address; log only the swap descriptor.
			disk, addr, err := s.fs.BlockLocation(FileID(rec.File), rec.Block)
			if err != nil {
				return err
			}
			// Restage the final page image (intervening writes may have
			// updated the intention since the last stage).
			if err := s.fs.DiskServer(int(disk)).Put(context.Background(), int(addr), rec.Data, diskservice.PutOptions{
				Stability: diskservice.StableOnly, WaitStable: true,
			}); err != nil {
				return err
			}
			u.Disk, u.Addr, u.Offset, u.image = kindShadow, uint32(rec.Block), addr, rec.Data
			u.Data = binary.BigEndian.AppendUint16(nil, disk)
		default: // page intention via WAL
			u.Disk, u.Addr = kindPage, uint32(rec.Block)
		}
	}
	for i := range ups {
		ups[i].Type, ups[i].Txn = wal.RecUpdate, uint64(t.id)
		if _, err := s.log.Append(ups[i].Record); err != nil {
			return err
		}
	}
	_, err := s.log.Append(wal.Record{Type: wal.RecCommit, Txn: uint64(t.id)})
	return err
}

// apply carries out a committed transaction's updates in log order (§6.7):
// at commit the list writeCommitRecords just logged, in Recover each
// committed transaction's records read back from the log. A file's record
// runs reach the file service as one WriteRuns call, which patches them
// into the cached blocks, flushes each block they touched once and writes
// the FIT at most once; the runs stop at a later page update of the same
// file, which applies in its own turn. A logged page is written through; a
// shadow swap moves the block's descriptor to a fresh copy of the image,
// unless it already moved; a size update truncates when the size differs; a
// delete removes the file. An update to a file deleted later in the log is
// skipped. At commit (t non-nil) PtCommitMidApply is hit before each file's
// pass and before each page, each carried-out intention is removed from the
// list, and a deleted file's service-level open is released first.
func (s *Service) apply(t *txnState, ups []update) error {
	var runBuf [4]fileservice.Run // a record commit rewrites a record or two per file
	var seqBuf [4]int
	for i := range ups {
		u := &ups[i]
		if u.done {
			continue
		}
		intention := t != nil && u.Disk <= kindShadow // one of the commit's intentions
		if intention {
			s.fault.Hit(PtCommitMidApply)
		}
		fid := FileID(u.File)
		seqs := append(seqBuf[:0], u.seq)
		var err error
		switch u.Disk {
		case kindRecord:
			runs := append(runBuf[:0], fileservice.Run{Off: int64(u.Offset), Data: u.Data})
			for j := i + 1; j < len(ups); j++ {
				r := &ups[j]
				if r.File != u.File || r.done {
					continue
				}
				if r.Disk != kindRecord {
					break
				}
				runs = append(runs, fileservice.Run{Off: int64(r.Offset), Data: r.Data})
				seqs = append(seqs, r.seq)
				r.done = true
			}
			_, err = s.fs.WriteRuns(context.Background(), fid, runs)
		case kindPage:
			err = s.fs.WriteBlockThrough(fid, int(u.Addr), u.Data)
		case kindShadow:
			err = s.swapShadow(fid, u)
		case kindSize:
			var cur int64
			size := int64(binary.BigEndian.Uint64(u.Data))
			if cur, err = s.fs.Size(fid); err == nil && cur != size {
				err = s.fs.Truncate(fid, size)
			}
		case kindDelete:
			if t != nil {
				s.releaseFile(t, fid)
			}
			err = s.fs.Delete(fid)
		default:
			err = fmt.Errorf("txn: unknown update kind %d", u.Disk)
		}
		if err != nil && !errors.Is(err, fileservice.ErrNotFound) {
			return err
		}
		if intention {
			t.list.RemoveIntentions(seqs...)
		}
	}
	return nil
}

// swapShadow makes one shadow page permanent: the block's descriptor moves
// to a fresh block holding the image. The swap is skipped if the descriptor
// already left the staged address (it was applied before a crash, or the
// block is gone); a recovered update, which holds no image, reads the staged
// copy from stable storage.
func (s *Service) swapShadow(fid FileID, u *update) error {
	disk := binary.BigEndian.Uint16(u.Data)
	curDisk, curAddr, err := s.fs.BlockLocation(fid, int(u.Addr))
	if errors.Is(err, fileservice.ErrBadRequest) {
		return nil // the block is gone
	}
	if err != nil {
		return err
	}
	if curDisk != disk || curAddr != u.Offset {
		return nil // swapped before the crash
	}
	ds := s.fs.DiskServer(int(disk))
	image := u.image
	if image == nil {
		if image, err = fileservice.Get(context.Background(), ds, int(u.Offset), fileservice.FragmentsPerBlock, diskservice.GetOptions{FromStable: true}); err != nil {
			return err
		}
	}
	newAddr, err := ds.AllocateBlocks(1)
	if err != nil {
		return err
	}
	if err := ds.Put(context.Background(), newAddr, image, diskservice.PutOptions{}); err != nil {
		return err
	}
	return s.fs.ReplaceBlockDescriptor(fid, int(u.Addr), fit.Extent{Disk: disk, Addr: uint32(newAddr), Count: 1})
}

// finish releases everything a completed top-level transaction holds: file
// opens, service classification, locks, and the transaction entry itself.
// The entry gone, the state is free for a later Begin unless a child may
// still hold it; the caller touches it no more.
func (s *Service) finish(t *txnState) {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	// Done, the transaction takes no more views or creations: the slices
	// stay as they are while finish walks them.
	files, created, reuse := t.files, t.created, t.parent == nil && !t.nested
	t.mu.Unlock()
	for _, f := range files {
		s.releaseFile(t, f.id) // idempotent: already-released files are skipped
	}
	s.locks.ReleaseAll(t.lockID)
	s.mu.Lock()
	for _, fid := range created {
		delete(s.uncommitted, fid)
	}
	delete(s.txns, t.id)
	if reuse && len(s.free) < maxFree {
		s.free = append(s.free, t)
	}
	s.mu.Unlock()
}

// releaseFile closes the service-level open of t's view of fid exactly
// once.
func (s *Service) releaseFile(t *txnState, fid FileID) {
	t.mu.Lock()
	f := t.lookup(fid)
	if f == nil || f.released {
		t.mu.Unlock()
		return
	}
	f.released = true
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
	s.met.aborted.Inc()
}

// maybeTruncateLog checkpoints once the log is more than half full — but
// only from a quiescent state. With group commit, other transactions'
// records may sit in the log synced-but-unapplied (their batch is durable
// while they are still applying intentions, or their leader crashed before
// waking them), and those records MUST survive until Recover can no longer
// need them. beginTruncation atomically verifies no batch is forming, no
// sync is in flight, and every batched commit has applied its intentions;
// until endTruncation, new committers wait.
func (s *Service) maybeTruncateLog() {
	if s.log.AppendedBytes() <= s.log.Capacity()/2 || !s.gc.beginTruncation() {
		return // a later End will retry
	}
	defer s.gc.endTruncation()
	_ = s.checkpoint() // on failure the log is kept; Recover can still replay it
}

// checkpoint makes every logged update redundant and empties the log: the
// file service's delayed writes reach the disks, then the log is reset. The
// caller keeps committers out meanwhile (beginTruncation, the log-full
// drain in appendLocked, or Recover before the service takes transactions).
func (s *Service) checkpoint() error {
	if err := s.fs.Flush(); err != nil {
		return err
	}
	return s.log.Reset()
}

// Recover replays the write-ahead log after a crash: each committed
// transaction's updates are carried out again by apply, in log order
// (idempotently), tentative data of unfinished transactions is discarded,
// and the log is checkpointed. Call it on a freshly mounted Service before
// accepting new transactions.
func (s *Service) Recover() (committed int, err error) {
	// Forget any pre-crash group-commit state: parked followers are gone and
	// their unapplied counts with them; the replay below settles their
	// outcomes.
	s.gc.reset()
	type txnLog struct {
		updates   []update
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
			tl.updates = append(tl.updates, update{Record: r})
		case wal.RecCommit:
			if tl := logs[r.Txn]; tl != nil {
				tl.committed = true
			}
		case wal.RecAbort:
			delete(logs, r.Txn)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	var redo [][]update // each committed transaction's updates, in log order
	for _, txn := range order {
		if tl := logs[txn]; tl != nil && tl.committed {
			redo = append(redo, tl.updates)
		}
	}
	for _, ups := range redo {
		for i := range ups {
			if err := s.keepSwapped(&ups[i]); err != nil {
				return 0, fmt.Errorf("txn: redo of txn %d: %w", ups[i].Txn, err)
			}
		}
	}
	for _, ups := range redo {
		if err := s.apply(nil, ups); err != nil {
			return committed, fmt.Errorf("txn: redo of txn %d: %w", ups[0].Txn, err)
		}
		committed++
	}
	return committed, s.checkpoint()
}

// keepSwapped turns a recovered shadow swap that was done before the crash
// into a logged page holding the block as the crash left it. The swap put
// its image in a block the log does not hold, and redo of an earlier
// transaction's write to the same logical block lands in that block; redone
// in its turn as a page, the swap puts the block back. Recover calls it on
// every committed update before it redoes any.
func (s *Service) keepSwapped(u *update) error {
	if u.Disk != kindShadow {
		return nil
	}
	disk := binary.BigEndian.Uint16(u.Data)
	curDisk, curAddr, err := s.fs.BlockLocation(FileID(u.File), int(u.Addr))
	if err != nil || curDisk == disk && curAddr == u.Offset {
		return nil // not swapped yet (apply swaps it), or gone (apply says why)
	}
	image, err := fileservice.Get(context.Background(), s.fs.DiskServer(int(curDisk)), int(curAddr), fileservice.FragmentsPerBlock, diskservice.GetOptions{})
	if err != nil {
		return err
	}
	u.Disk, u.Data = kindPage, image
	return nil
}
