package agent

import (
	"context"
	"fmt"

	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/naming"
	"repro/internal/txn"
)

// TransactionAgent allows operations on files with transaction semantics
// (§6). The agent is highly dynamic (§7): the machine creates it when the
// first transaction begins and destroys it when the last one completes or
// aborts.
type TransactionAgent struct {
	machine *Machine
	live    int // transactions in flight on this machine (guarded by machine.mu)
}

// TBegin starts a transaction on behalf of the process and records the
// transaction descriptor in it.
func (p *Process) TBegin() (txn.TxnID, error) {
	a, err := p.machine.transactionAgent()
	if err != nil {
		return 0, err
	}
	id, err := p.machine.txns.Begin(p.pid)
	if err != nil {
		return 0, err
	}
	p.machine.mu.Lock()
	a.live++
	p.machine.mu.Unlock()
	p.mu.Lock()
	if p.txns == nil {
		p.txns = make(map[txn.TxnID]bool)
	}
	p.txns[id] = true
	p.mu.Unlock()
	return id, nil
}

// endTxn updates agent and process bookkeeping after tend/tabort: the
// transaction agent ceases to exist with its last transaction (§7).
func (p *Process) endTxn(id txn.TxnID) {
	p.mu.Lock()
	delete(p.txns, id)
	p.mu.Unlock()
	m := p.machine
	m.mu.Lock()
	if a := m.txnAgent; a != nil {
		a.live--
		if a.live == 0 {
			m.txnAgent = nil
		}
	}
	m.mu.Unlock()
}

// checkTxn verifies the process owns the transaction.
func (p *Process) checkTxn(id txn.TxnID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.txns[id] {
		return fmt.Errorf("agent: process %d does not own transaction %d", p.pid, id)
	}
	return nil
}

// TCreate creates a file within the transaction and returns an object
// descriptor (above DescriptorBase).
func (p *Process) TCreate(id txn.TxnID, path string, attr fit.Attributes) (int, error) {
	if err := p.checkTxn(id); err != nil {
		return 0, err
	}
	fid, err := p.machine.txns.Create(id, attr)
	if err != nil {
		return 0, err
	}
	if err := p.machine.naming.Register(naming.Entry{
		Name:       naming.Name{"type": "FILE", "path": path},
		Type:       naming.FileObject,
		SystemName: uint64(fid),
		Service:    "fs0",
	}); err != nil {
		return 0, err
	}
	return p.addFileDesc(&descriptor{kind: descTxnFile, file: fid, txn: id}), nil
}

// TOpen opens a file by path within the transaction.
func (p *Process) TOpen(id txn.TxnID, path string, level fit.LockLevel) (int, error) {
	if err := p.checkTxn(id); err != nil {
		return 0, err
	}
	e, err := p.machine.naming.ResolvePath(path)
	if err != nil {
		return 0, err
	}
	fid := fileservice.FileID(e.SystemName)
	if err := p.machine.txns.Open(id, fid, level); err != nil {
		return 0, err
	}
	return p.addFileDesc(&descriptor{kind: descTxnFile, file: fid, txn: id}), nil
}

// TDelete marks the file behind the descriptor for deletion at commit.
func (p *Process) TDelete(id txn.TxnID, fd int) error {
	d, err := p.txnDesc(id, fd)
	if err != nil {
		return err
	}
	return p.machine.txns.Delete(id, d.file)
}

// TRead reads at the descriptor's cursor under transaction semantics.
func (p *Process) TRead(id txn.TxnID, fd int, n int, forUpdate bool) ([]byte, error) {
	d, err := p.txnDesc(id, fd)
	if err != nil {
		return nil, err
	}
	return p.machine.txns.Read(id, d.file, n, forUpdate)
}

// TPRead reads at an absolute offset.
func (p *Process) TPRead(id txn.TxnID, fd int, off int64, n int, forUpdate bool) ([]byte, error) {
	d, err := p.txnDesc(id, fd)
	if err != nil {
		return nil, err
	}
	return p.machine.txns.PReadCtx(context.Background(), id, d.file, off, n, forUpdate)
}

// TWrite writes at the descriptor's cursor.
func (p *Process) TWrite(id txn.TxnID, fd int, data []byte) (int, error) {
	d, err := p.txnDesc(id, fd)
	if err != nil {
		return 0, err
	}
	return p.machine.txns.Write(id, d.file, data)
}

// TPWrite writes at an absolute offset.
func (p *Process) TPWrite(id txn.TxnID, fd int, off int64, data []byte) (int, error) {
	d, err := p.txnDesc(id, fd)
	if err != nil {
		return 0, err
	}
	return p.machine.txns.PWriteCtx(context.Background(), id, d.file, off, data)
}

// TLSeek moves the transaction cursor on the file.
func (p *Process) TLSeek(id txn.TxnID, fd int, off int64, whence int) (int64, error) {
	d, err := p.txnDesc(id, fd)
	if err != nil {
		return 0, err
	}
	return p.machine.txns.LSeek(id, d.file, off, whence)
}

// TGetAttribute returns the file attributes as the transaction sees them.
func (p *Process) TGetAttribute(id txn.TxnID, fd int) (fit.Attributes, error) {
	d, err := p.txnDesc(id, fd)
	if err != nil {
		return fit.Attributes{}, err
	}
	return p.machine.txns.GetAttribute(id, d.file)
}

// TClose drops the descriptor (locks are retained until TEnd/TAbort, §6.2).
func (p *Process) TClose(id txn.TxnID, fd int) error {
	d, err := p.txnDesc(id, fd)
	if err != nil {
		return err
	}
	if err := p.machine.txns.CloseFile(id, d.file); err != nil {
		return err
	}
	p.mu.Lock()
	delete(p.descs, fd)
	p.mu.Unlock()
	return nil
}

// TEnd commits the transaction.
func (p *Process) TEnd(id txn.TxnID) error {
	if err := p.checkTxn(id); err != nil {
		return err
	}
	err := p.machine.txns.EndCtx(context.Background(), id)
	p.dropTxnDescs(id)
	p.endTxn(id)
	return err
}

// TAbort rolls the transaction back.
func (p *Process) TAbort(id txn.TxnID) error {
	if err := p.checkTxn(id); err != nil {
		return err
	}
	err := p.machine.txns.Abort(id)
	p.dropTxnDescs(id)
	p.endTxn(id)
	return err
}

// dropTxnDescs removes all descriptors belonging to a finished transaction.
func (p *Process) dropTxnDescs(id txn.TxnID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for fd, d := range p.descs {
		if d.kind == descTxnFile && d.txn == id {
			delete(p.descs, fd)
		}
	}
}

// txnDesc validates a transaction-file descriptor.
func (p *Process) txnDesc(id txn.TxnID, fd int) (*descriptor, error) {
	if err := p.checkTxn(id); err != nil {
		return nil, err
	}
	d, err := p.desc(fd)
	if err != nil {
		return nil, err
	}
	if d.kind != descTxnFile || d.txn != id {
		return nil, fmt.Errorf("%w: %d is not a file of transaction %d", ErrBadDescriptor, fd, id)
	}
	return d, nil
}

// TBeginChild starts a subtransaction of an owned transaction; the child is
// recorded on the process like any transaction descriptor.
func (p *Process) TBeginChild(parent txn.TxnID) (txn.TxnID, error) {
	if err := p.checkTxn(parent); err != nil {
		return 0, err
	}
	a, err := p.machine.transactionAgent()
	if err != nil {
		return 0, err
	}
	id, err := p.machine.txns.BeginChild(parent)
	if err != nil {
		return 0, err
	}
	p.machine.mu.Lock()
	a.live++
	p.machine.mu.Unlock()
	p.mu.Lock()
	p.txns[id] = true
	p.mu.Unlock()
	return id, nil
}
