// Package intentions implements the intentions-list approach to transaction
// recovery chosen in §6.6–§6.7: each transaction accumulates a list of
// intention records — descriptors of the data item and of the tentative data
// item holding its isolated copy — plus an intention flag recording the
// transaction's status (tentative, commit, abort).
//
// When the flag moves to commit, each intention is made permanent with one
// of the two techniques of §6.7, chosen per the paper's rule: write-ahead
// logging when the affected blocks are contiguous (and always for
// record-mode intentions, where tying up a whole block would be wasteful),
// and the shadow-page technique otherwise. After the changes are permanent,
// the records are deleted from the list.
//
// The operations follow the paper's naming: SetIntention, GetIntentions and
// RemoveIntentions are the set-intention, get-intention and remove-intention
// of §6.7.
package intentions

import (
	"fmt"
	"sync"
)

// Status is the intention flag (§6.7): the status of a transaction.
type Status int

// Intention-flag values.
const (
	// Tentative is the status during the first (locking) phase.
	Tentative Status = iota + 1
	// Committed means the changes in the list are to be made permanent.
	Committed
	// Aborted means the changes are to be discarded.
	Aborted
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Tentative:
		return "tentative"
	case Committed:
		return "commit"
	case Aborted:
		return "abort"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Technique selects how an intention is made permanent (§6.7).
type Technique int

// Techniques.
const (
	// WAL is write-ahead logging: the after-image goes to the log and the
	// in-place blocks are rewritten, preserving block contiguity.
	WAL Technique = iota + 1
	// ShadowPage writes the tentative block to a fresh disk block and swaps
	// the descriptor in the file index table, destroying contiguity but
	// avoiding the in-place copy.
	ShadowPage
)

// String implements fmt.Stringer.
func (t Technique) String() string {
	switch t {
	case WAL:
		return "wal"
	case ShadowPage:
		return "shadow-page"
	default:
		return fmt.Sprintf("Technique(%d)", int(t))
	}
}

// Kind distinguishes the granularity of the tentative data item.
type Kind int

// Kinds of intentions.
const (
	// RecordKind is a byte-range after-image (record mode); the tentative
	// item is represented by fragments or blocks as needed (§6.7).
	RecordKind Kind = iota + 1
	// PageKind is a whole-block after-image (page or file mode).
	PageKind
)

// Record is one intention: the descriptors of the data item and of its
// tentative copy (§6.7).
type Record struct {
	// Seq orders intentions within a transaction.
	Seq int
	// File is the data item's file.
	File uint64
	// Kind selects how the remaining fields are read.
	Kind Kind
	// Offset/Length describe a record-mode byte range; Block a page-mode
	// logical block index.
	Offset int64
	Length int
	Block  int
	// Data is the tentative data item's contents (the after-image).
	Data []byte
	// Technique is filled when the transaction commits, per the contiguity
	// rule; zero while tentative.
	Technique Technique
}

// List is one transaction's intentions list plus its intention flag. It is
// safe for concurrent use.
type List struct {
	mu      sync.Mutex
	txn     uint64
	status  Status
	records []Record // in Seq order: appended with rising Seq, removed in place
	nextSeq int
	// data holds the records' after-images, each record's Data a full slice
	// of it; Reset keeps it for the list's next transaction. An append that
	// outgrows it moves on to a larger array and leaves the earlier records
	// where they are.
	data []byte
}

// Reset keeps at most keepBytes of after-image storage and keepRecords
// records: a transaction that wrote more leaves them to the collector.
const keepBytes, keepRecords = 64 << 10, 256

// NewList returns an empty tentative list for transaction txn.
func NewList(txn uint64) *List {
	return &List{txn: txn, status: Tentative}
}

// Reset empties the list for transaction txn and sets its flag to
// tentative, keeping its storage for the new transaction's intentions. The
// Data of every record the list handed out before is overwritten by later
// intentions, so the caller resets only once it is done with them.
func (l *List) Reset(txn uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.txn, l.status, l.nextSeq = txn, Tentative, 0
	clear(l.records[:cap(l.records)]) // no stale Data pins dropped storage
	l.records = l.records[:0]
	if cap(l.records) > keepRecords {
		l.records = nil
	}
	l.data = l.data[:0]
	if cap(l.data) > keepBytes {
		l.data = nil
	}
}

// SetStatus moves the intention flag. The legal transitions are
// Tentative→Committed and Tentative→Aborted; anything else is an error.
func (l *List) SetStatus(s Status) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.status != Tentative {
		return fmt.Errorf("intentions: transaction %d already %v", l.txn, l.status)
	}
	if s != Committed && s != Aborted {
		return fmt.Errorf("intentions: invalid transition to %v", s)
	}
	l.status = s
	return nil
}

// SetIntention appends or merges an intention (the paper's set-intention).
// A page-mode intention for a block already in the list replaces that
// record's data; a record-mode intention is appended as-is (later records
// win on overlap, preserving write order).
func (l *List) SetIntention(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.status != Tentative {
		return fmt.Errorf("intentions: transaction %d is %v; no new intentions", l.txn, l.status)
	}
	if rec.Kind == PageKind {
		for i := range l.records {
			r := &l.records[i]
			if r.Kind == PageKind && r.File == rec.File && r.Block == rec.Block {
				r.Data = append(r.Data[:0], rec.Data...)
				return nil
			}
		}
	}
	rec.Seq = l.nextSeq
	l.nextSeq++
	from := len(l.data)
	l.data = append(l.data, rec.Data...)
	rec.Data = l.data[from:len(l.data):len(l.data)]
	l.records = append(l.records, rec)
	return nil
}

// GetIntentions returns the records in sequence order (the paper's
// get-intention). The returned slice is a copy; Data buffers are shared and
// must not be mutated.
func (l *List) GetIntentions() []Record {
	return l.AppendIntentions(nil)
}

// AppendIntentions is GetIntentions appending to dst, for a caller that
// reuses one slice across transactions.
func (l *List) AppendIntentions(dst []Record) []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append(dst, l.records...)
}

// AssignTechniques fills each record's Technique using the paper's rule
// (§6.7): record-mode intentions always use WAL; page-mode intentions use
// WAL when contiguous(file) reports the file's affected blocks are stored
// contiguously, and the shadow-page technique otherwise.
func (l *List) AssignTechniques(contiguous func(file uint64) bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	verdicts := map[uint64]bool{}
	for i := range l.records {
		r := &l.records[i]
		if r.Kind == RecordKind {
			r.Technique = WAL
			continue
		}
		v, ok := verdicts[r.File]
		if !ok {
			v = contiguous(r.File)
			verdicts[r.File] = v
		}
		if v {
			r.Technique = WAL
		} else {
			r.Technique = ShadowPage
		}
	}
}

// AdjustTechniques lets the caller override the assigned technique per
// record (e.g. a shadow-page intention for a block that does not exist yet
// has no original location to shadow and must fall back to WAL).
func (l *List) AdjustTechniques(fn func(Record) Technique) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.records {
		l.records[i].Technique = fn(l.records[i])
	}
}

// RemoveIntentions deletes records once their changes are permanent (the
// paper's remove-intention): "after making the changes permanent the records
// from the intentions list are deleted" (§6.7). It removes the records with
// the given sequence numbers.
func (l *List) RemoveIntentions(seqs ...int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	drop := make(map[int]bool, len(seqs))
	for _, s := range seqs {
		drop[s] = true
	}
	kept := l.records[:0]
	for _, r := range l.records {
		if !drop[r.Seq] {
			kept = append(kept, r)
		}
	}
	l.records = kept
}

// Overlay applies the transaction's tentative view of file on top of base:
// base is the committed content starting at byte offset off, and every
// intention overlapping [off, off+len(base)) is patched in, later intentions
// last. blockSize converts page-mode blocks to byte ranges.
func (l *List) Overlay(file uint64, off int64, base []byte, blockSize int) []byte {
	out := base
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range l.records {
		if r.File != file {
			continue
		}
		var rOff int64
		var rData []byte
		switch r.Kind {
		case PageKind:
			rOff = int64(r.Block) * int64(blockSize)
			rData = r.Data
		default:
			rOff = r.Offset
			rData = r.Data
		}
		end := off + int64(len(out))
		rEnd := rOff + int64(len(rData))
		if rEnd <= off || rOff >= end {
			continue
		}
		// Intersection [lo, hi) in absolute bytes.
		lo, hi := rOff, rEnd
		if lo < off {
			lo = off
		}
		if hi > end {
			hi = end
		}
		copy(out[lo-off:hi-off], rData[lo-rOff:hi-rOff])
	}
	return out
}
