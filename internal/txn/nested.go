package txn

import (
	"fmt"

	"repro/internal/fileservice"
	"repro/internal/intentions"
)

// Nested transactions. §6.4 acknowledges that "a transaction can also take a
// long time if it is nested"; this file provides the subtransaction model
// that remark presupposes, in the simplified Moss style:
//
//   - A child transaction acquires locks on behalf of its top-level ancestor
//     (the lock manager sees one transaction), so locks survive child commit
//     and release only when the top-level transaction ends — strict 2PL for
//     the whole family.
//   - A child's reads see the committed state overlaid with every ancestor's
//     tentative data and then its own.
//   - Child commit merges its intentions (and created/deleted lists, file
//     opens and tentative sizes) into the parent; nothing reaches the log or
//     the disks until the top-level commit.
//   - Child abort discards only the child's own tentative data; the
//     ancestors' work is untouched. Locks the child acquired are retained by
//     the family (a conservative, safe simplification).

// ErrLiveChildren reports an End/Abort of a transaction that still has
// running subtransactions.
var ErrLiveChildren = fmt.Errorf("txn: transaction has live subtransactions")

// BeginChild starts a subtransaction of parent.
func (s *Service) BeginChild(parent TxnID) (TxnID, error) {
	pt, err := s.get(parent)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.nextID++
	id := s.nextID
	s.mu.Unlock()
	ct := &txnState{
		id: id, pid: pt.pid,
		parent: pt,
		lockID: pt.lockID,
		list:   intentions.NewList(uint64(id)),
	}
	pt.mu.Lock()
	if pt.done {
		pt.mu.Unlock()
		return 0, ErrAborted
	}
	pt.nested = true
	pt.children++
	pt.kids = append(pt.kids, ct)
	pt.mu.Unlock()
	s.mu.Lock()
	s.txns[id] = ct
	s.mu.Unlock()
	return id, nil
}

// overlay patches buf, fid's committed bytes from off, with the tentative
// data of every ancestor from the top-level one down and then t's own.
func (t *txnState) overlay(fid FileID, off int64, buf []byte) {
	if t.parent != nil {
		t.parent.overlay(fid, off, buf)
	}
	t.list.Overlay(uint64(fid), off, buf, fileservice.BlockSize)
}

// inheritedFile looks the file up in the ancestors and returns a copy of
// the nearest one's view for t, without its fs-level open; ok is false when
// no ancestor has it open.
func (t *txnState) inheritedFile(fid FileID) (v txnFile, ok bool) {
	for cur := t.parent; cur != nil; cur = cur.parent {
		cur.mu.Lock()
		if f := cur.lookup(fid); f != nil {
			v = txnFile{id: fid, level: f.level, size: f.size, baseBlocks: f.baseBlocks}
			cur.mu.Unlock()
			return v, true
		}
		cur.mu.Unlock()
	}
	return txnFile{}, false
}

// endChild merges the committed child into its parent.
func (s *Service) endChild(t *txnState) error {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return ErrAborted
	}
	if t.children > 0 {
		t.mu.Unlock()
		return ErrLiveChildren
	}
	t.done = true
	p := t.parent
	files := t.files
	created := t.created
	deleted := t.deleted
	t.mu.Unlock()

	_ = t.list.SetStatus(intentions.Committed)
	// Merge intentions in order; page intentions for the same block replace
	// the parent's (the child saw the newer data).
	for _, rec := range t.list.GetIntentions() {
		rec.Seq = 0
		if err := p.list.SetIntention(rec); err != nil {
			return err
		}
	}
	p.mu.Lock()
	for _, f := range files {
		if pf := p.lookup(f.id); pf != nil {
			pf.size = f.size // the child's tentative size is the newest view
		} else {
			// The view moves to the parent with its opened flag: the child's
			// fs-level open transfers, and the parent releases it at
			// top-level end.
			p.files = append(p.files, f)
		}
	}
	p.created = append(p.created, created...)
	p.deleted = append(p.deleted, deleted...)
	p.children--
	dropKid(p, t)
	p.mu.Unlock()

	s.mu.Lock()
	// Ownership of uncommitted-created files moves to the parent.
	for _, fid := range created {
		if s.uncommitted[fid] == t.id {
			s.uncommitted[fid] = p.id
		}
	}
	delete(s.txns, t.id)
	s.mu.Unlock()
	return nil
}

// abortChild rolls back only the child's work.
func (s *Service) abortChild(t *txnState) {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	p := t.parent
	created := append([]FileID(nil), t.created...)
	files := t.files
	t.mu.Unlock()

	_ = t.list.SetStatus(intentions.Aborted)
	// Files the child created vanish; files it opened are closed (the
	// parent's own opens are separate fs.Open calls and unaffected —
	// inherited views were clones without an fs.Open). A created file's
	// open is released before its delete, so the second pass skips it.
	for _, fid := range created {
		s.releaseFile(t, fid)
		_ = s.fs.Delete(fid)
	}
	for _, f := range files {
		if f.opened {
			s.releaseFile(t, f.id)
		}
	}
	p.mu.Lock()
	p.children--
	dropKid(p, t)
	p.mu.Unlock()
	s.mu.Lock()
	for _, fid := range created {
		delete(s.uncommitted, fid)
	}
	delete(s.txns, t.id)
	s.mu.Unlock()
	s.met.childAborted.Inc()
}

// dropKid removes a finished child from the parent's kid list; callers hold
// p.mu.
func dropKid(p, child *txnState) {
	for i, k := range p.kids {
		if k == child {
			p.kids = append(p.kids[:i], p.kids[i+1:]...)
			return
		}
	}
}

// sameFamily reports whether two transaction ids share a top-level ancestor
// (callers hold s.mu).
func (s *Service) sameFamily(a, b TxnID) bool {
	if a == b {
		return true
	}
	ta, tb := s.txns[a], s.txns[b]
	if ta == nil || tb == nil {
		return false
	}
	return ta.lockID == tb.lockID
}

// metricTxnChildAborted counts subtransaction rollbacks.
const metricTxnChildAborted = "txn.child_aborted"
