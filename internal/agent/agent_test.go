package agent

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/diskservice"
	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/lock"
	"repro/internal/naming"
	"repro/internal/stable"
	"repro/internal/txn"
	"repro/internal/wal"
)

// rig builds a machine over a one-disk substrate.
type rig struct {
	machine *Machine
	fs      *fileservice.Service
	nm      *naming.Service
}

func newRig(t *testing.T) *rig {
	t.Helper()
	g := device.Geometry{FragmentsPerTrack: 32, Tracks: 128}
	d, err := device.New(g)
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := device.New(g)
	sm, _ := device.New(g)
	st, err := stable.NewStore(sp, sm)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	srv, err := diskservice.Format(diskservice.Config{Disk: d, Stable: st})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := fileservice.New(fileservice.Config{Disks: fileservice.Servers(srv)})
	if err != nil {
		t.Fatal(err)
	}
	lp, _ := device.New(device.Geometry{FragmentsPerTrack: 32, Tracks: 16})
	lm, _ := device.New(device.Geometry{FragmentsPerTrack: 32, Tracks: 16})
	logSt, err := stable.NewStore(lp, lm)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = logSt.Close() })
	start, err := logSt.Allocate(128)
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(logSt, start, 128)
	if err != nil {
		t.Fatal(err)
	}
	locks := lock.New(lock.Config{LT: 100 * time.Millisecond})
	t.Cleanup(locks.Close)
	ts, err := txn.New(txn.Config{Files: fs, Log: log, Locks: locks})
	if err != nil {
		t.Fatal(err)
	}
	nm := naming.NewService()
	machine, err := NewMachine(MachineConfig{Naming: nm, Files: fs, Txns: ts})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{machine: machine, fs: fs, nm: nm}
}

func TestFileAgentCreateWriteReadByPath(t *testing.T) {
	r := newRig(t)
	p := r.machine.NewProcess()
	fa := r.machine.FileAgent()
	fd, err := fa.Create(p, "/docs/hello", fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	if fd <= DescriptorBase {
		t.Fatalf("file descriptor %d not above DescriptorBase (§3)", fd)
	}
	if _, err := fa.Write(p, fd, []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	if err := fa.Close(p, fd); err != nil {
		t.Fatal(err)
	}
	// Reopen by attributed path name from another process.
	p2 := r.machine.NewProcess()
	fd2, err := fa.Open(p2, "/docs/hello")
	if err != nil {
		t.Fatal(err)
	}
	got, err := fa.Read(p2, fd2, 100)
	if err != nil || string(got) != "hello world" {
		t.Fatalf("Read = %q, %v", got, err)
	}
	attr, err := fa.GetAttribute(p2, fd2)
	if err != nil || attr.Size != 11 {
		t.Fatalf("GetAttribute = %+v, %v", attr, err)
	}
	if err := fa.Close(p2, fd2); err != nil {
		t.Fatal(err)
	}
}

func TestFileAgentCursorAndSeek(t *testing.T) {
	r := newRig(t)
	p := r.machine.NewProcess()
	fa := r.machine.FileAgent()
	fd, err := fa.Create(p, "/f", fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fa.Write(p, fd, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	if pos, err := fa.LSeek(p, fd, 2, 0); err != nil || pos != 2 {
		t.Fatalf("LSeek = %d, %v", pos, err)
	}
	got, err := fa.Read(p, fd, 2)
	if err != nil || string(got) != "cd" {
		t.Fatalf("Read = %q, %v", got, err)
	}
	if pos, err := fa.LSeek(p, fd, -1, 2); err != nil || pos != 5 {
		t.Fatalf("LSeek(end) = %d, %v", pos, err)
	}
	got, err = fa.Read(p, fd, 10)
	if err != nil || string(got) != "f" {
		t.Fatalf("Read at end = %q, %v", got, err)
	}
}

func TestDeleteByPath(t *testing.T) {
	r := newRig(t)
	p := r.machine.NewProcess()
	fa := r.machine.FileAgent()
	fd, err := fa.Create(p, "/della", fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fa.Close(p, fd); err != nil {
		t.Fatal(err)
	}
	if err := fa.Delete("/della"); err != nil {
		t.Fatal(err)
	}
	if _, err := fa.Open(p, "/della"); !errors.Is(err, naming.ErrNotFound) {
		t.Fatalf("open of deleted file = %v", err)
	}
}

func TestDeviceAgentDescriptorsBelowBase(t *testing.T) {
	r := newRig(t)
	p := r.machine.NewProcess()
	da := r.machine.DeviceAgent()
	var out bytes.Buffer
	if err := da.Register(&Device{Name: "printer", Writer: &out}); err != nil {
		t.Fatal(err)
	}
	fd, err := da.Open(p, naming.Name{"type": "TTY", "dev": "printer"})
	if err != nil {
		t.Fatal(err)
	}
	if fd >= DescriptorBase {
		t.Fatalf("device descriptor %d not below DescriptorBase (§3)", fd)
	}
	if _, err := da.Write(p, fd, []byte("job1")); err != nil {
		t.Fatal(err)
	}
	if out.String() != "job1" {
		t.Fatalf("device output = %q", out.String())
	}
}

func TestDeviceAgentRead(t *testing.T) {
	r := newRig(t)
	p := r.machine.NewProcess()
	da := r.machine.DeviceAgent()
	if err := da.Register(&Device{Name: "keyboard", Reader: strings.NewReader("typed input")}); err != nil {
		t.Fatal(err)
	}
	fd, err := da.Open(p, naming.Name{"type": "TTY", "dev": "keyboard"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := da.Read(p, fd, 5)
	if err != nil || string(got) != "typed" {
		t.Fatalf("Read = %q, %v", got, err)
	}
}

func TestStdRedirection(t *testing.T) {
	r := newRig(t)
	p := r.machine.NewProcess()
	if p.Stdin != 0 || p.Stdout != 1 || p.Stderr != 2 {
		t.Fatalf("default std descriptors = %d/%d/%d, want 0/1/2", p.Stdin, p.Stdout, p.Stderr)
	}
	fa := r.machine.FileAgent()
	fd, err := fa.Create(p, "/out.log", fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RedirectStdout(fd); err != nil {
		t.Fatal(err)
	}
	if p.Stdout != RedirectedStdout {
		t.Fatalf("Stdout = %d, want %d (§3)", p.Stdout, RedirectedStdout)
	}
	// Writing via the redirected descriptor reaches the file.
	if _, err := fa.Write(p, p.Stdout, []byte("logged")); err != nil {
		t.Fatal(err)
	}
	if _, err := fa.LSeek(p, fd, 0, 0); err != nil {
		t.Fatal(err)
	}
	got, err := fa.Read(p, fd, 6)
	if err != nil || string(got) != "logged" {
		t.Fatalf("redirected output = %q, %v", got, err)
	}
	if err := p.RedirectStdin(fd); err != nil {
		t.Fatal(err)
	}
	if p.Stdin != RedirectedStdin {
		t.Fatalf("Stdin = %d, want %d", p.Stdin, RedirectedStdin)
	}
	if err := p.RedirectStderr(fd); err != nil {
		t.Fatal(err)
	}
	if p.Stderr != RedirectedStderr {
		t.Fatalf("Stderr = %d, want %d", p.Stderr, RedirectedStderr)
	}
}

func TestTransactionAgentLifecycle(t *testing.T) {
	r := newRig(t)
	p := r.machine.NewProcess()
	if r.machine.TransactionAgentRunning() {
		t.Fatal("transaction agent exists before any transaction (§7)")
	}
	id, err := p.TBegin()
	if err != nil {
		t.Fatal(err)
	}
	if !r.machine.TransactionAgentRunning() {
		t.Fatal("transaction agent not created by first tbegin")
	}
	id2, err := p.TBegin()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.TAbort(id2); err != nil {
		t.Fatal(err)
	}
	if !r.machine.TransactionAgentRunning() {
		t.Fatal("agent died while a transaction is still live")
	}
	fd, err := p.TCreate(id, "/txn/file", fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	if fd <= DescriptorBase {
		t.Fatalf("transaction descriptor %d not above base", fd)
	}
	if _, err := p.TWrite(id, fd, []byte("tdata")); err != nil {
		t.Fatal(err)
	}
	if err := p.TEnd(id); err != nil {
		t.Fatal(err)
	}
	if r.machine.TransactionAgentRunning() {
		t.Fatal("transaction agent survives the last transaction (§7)")
	}
	// The committed file is now reachable through the basic file agent.
	fa := r.machine.FileAgent()
	fd2, err := fa.Open(p, "/txn/file")
	if err != nil {
		t.Fatal(err)
	}
	got, err := fa.Read(p, fd2, 5)
	if err != nil || string(got) != "tdata" {
		t.Fatalf("committed content = %q, %v", got, err)
	}
}

func TestTransactionOpsFullSurface(t *testing.T) {
	r := newRig(t)
	p := r.machine.NewProcess()
	id, err := p.TBegin()
	if err != nil {
		t.Fatal(err)
	}
	fd, err := p.TCreate(id, "/t/surface", fit.Attributes{Locking: fit.LockPage})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.TPWrite(id, fd, 0, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	got, err := p.TPRead(id, fd, 2, 3, false)
	if err != nil || string(got) != "234" {
		t.Fatalf("TPRead = %q, %v", got, err)
	}
	if pos, err := p.TLSeek(id, fd, 5, txn.SeekSet); err != nil || pos != 5 {
		t.Fatalf("TLSeek = %d, %v", pos, err)
	}
	got, err = p.TRead(id, fd, 2, false)
	if err != nil || string(got) != "56" {
		t.Fatalf("TRead = %q, %v", got, err)
	}
	attr, err := p.TGetAttribute(id, fd)
	if err != nil || attr.Size != 10 {
		t.Fatalf("TGetAttribute = %+v, %v", attr, err)
	}
	if err := p.TClose(id, fd); err != nil {
		t.Fatal(err)
	}
	if err := p.TEnd(id); err != nil {
		t.Fatal(err)
	}
}

func TestTDeleteThroughAgent(t *testing.T) {
	r := newRig(t)
	p := r.machine.NewProcess()
	// Create and commit a file.
	id, err := p.TBegin()
	if err != nil {
		t.Fatal(err)
	}
	fd, err := p.TCreate(id, "/t/gone", fit.Attributes{Locking: fit.LockFile})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.TWrite(id, fd, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := p.TEnd(id); err != nil {
		t.Fatal(err)
	}
	// Delete it in a second transaction.
	id2, err := p.TBegin()
	if err != nil {
		t.Fatal(err)
	}
	fd2, err := p.TOpen(id2, "/t/gone", fit.LockFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.TDelete(id2, fd2); err != nil {
		t.Fatal(err)
	}
	if err := p.TEnd(id2); err != nil {
		t.Fatal(err)
	}
	e, err := r.nm.ResolvePath("/t/gone")
	if err != nil {
		t.Fatal(err) // name survives; removing it is the application's business
	}
	if _, err := r.fs.Attributes(fileservice.FileID(e.SystemName)); !errors.Is(err, fileservice.ErrNotFound) {
		t.Fatalf("file survives committed tdelete: %v", err)
	}
}

func TestProcessTwinInheritsDescriptors(t *testing.T) {
	r := newRig(t)
	p := r.machine.NewProcess()
	fa := r.machine.FileAgent()
	fd, err := fa.Create(p, "/twin/file", fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fa.Write(p, fd, []byte("parent")); err != nil {
		t.Fatal(err)
	}
	child, err := p.Twin()
	if err != nil {
		t.Fatal(err)
	}
	// The child inherits the open descriptor (its own cursor copy).
	if _, err := fa.LSeek(child, fd, 0, 0); err != nil {
		t.Fatalf("child cannot use inherited descriptor: %v", err)
	}
	got, err := fa.Read(child, fd, 6)
	if err != nil || string(got) != "parent" {
		t.Fatalf("child read = %q, %v", got, err)
	}
	// Child's cursor is independent after the twin.
	if _, err := fa.Read(p, fd, 1); err != nil {
		t.Fatal(err)
	}
}

func TestTwinRefusedWithLiveTransactions(t *testing.T) {
	r := newRig(t)
	p := r.machine.NewProcess()
	id, err := p.TBegin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Twin(); !errors.Is(err, ErrTwinWithTxns) {
		t.Fatalf("Twin with live txn = %v, want ErrTwinWithTxns (§3)", err)
	}
	if err := p.TAbort(id); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Twin(); err != nil {
		t.Fatalf("Twin after abort: %v", err)
	}
}

func TestDescriptorKindChecks(t *testing.T) {
	r := newRig(t)
	p := r.machine.NewProcess()
	fa := r.machine.FileAgent()
	da := r.machine.DeviceAgent()
	fd, err := fa.Create(p, "/k", fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := da.Write(p, fd, []byte("x")); !errors.Is(err, ErrNotDevice) {
		t.Fatalf("device write to file descriptor = %v", err)
	}
	dfd, err := da.Open(p, naming.Name{"type": "TTY", "dev": "console"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fa.Read(p, dfd, 1); !errors.Is(err, ErrNotFile) {
		t.Fatalf("file read of device descriptor = %v", err)
	}
	if _, err := fa.Read(p, 424242, 1); !errors.Is(err, ErrBadDescriptor) {
		t.Fatalf("unknown descriptor = %v", err)
	}
	// Using another transaction's descriptor fails.
	id, err := p.TBegin()
	if err != nil {
		t.Fatal(err)
	}
	tfd, err := p.TCreate(id, "/k2", fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.TRead(999, tfd, 1, false); err == nil {
		t.Fatal("foreign transaction accepted")
	}
	if err := p.TEnd(id); err != nil {
		t.Fatal(err)
	}
}

func TestAgentNestedTransactions(t *testing.T) {
	r := newRig(t)
	p := r.machine.NewProcess()
	top, err := p.TBegin()
	if err != nil {
		t.Fatal(err)
	}
	fd, err := p.TCreate(top, "/nested/doc", fit.Attributes{Locking: fit.LockPage})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.TPWrite(top, fd, 0, []byte("base")); err != nil {
		t.Fatal(err)
	}
	child, err := p.TBeginChild(top)
	if err != nil {
		t.Fatal(err)
	}
	// The child uses the same descriptor through the parent's view? The
	// descriptor belongs to the top-level txn; child ops go through the
	// service directly via a fresh descriptor-less path — re-open by path.
	fdc, err := p.TOpen(child, "/nested/doc", fit.LockNone)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.TPWrite(child, fdc, 0, []byte("EDIT")); err != nil {
		t.Fatal(err)
	}
	if err := p.TEnd(child); err != nil {
		t.Fatal(err)
	}
	got, err := p.TPRead(top, fd, 0, 4, false)
	if err != nil || string(got) != "EDIT" {
		t.Fatalf("parent view after child commit = %q, %v", got, err)
	}
	if err := p.TEnd(top); err != nil {
		t.Fatal(err)
	}
	// Committed.
	fa := r.machine.FileAgent()
	fd2, err := fa.Open(p, "/nested/doc")
	if err != nil {
		t.Fatal(err)
	}
	final, err := fa.Read(p, fd2, 4)
	if err != nil || string(final) != "EDIT" {
		t.Fatalf("committed = %q, %v", final, err)
	}
}

// openFailsOnce is a FileService whose next Open fails.
type openFailsOnce struct {
	FileService
	err error
}

func (f *openFailsOnce) Open(id fileservice.FileID) error {
	if err := f.err; err != nil {
		f.err = nil
		return err
	}
	return f.FileService.Open(id)
}

// pathOwner is openFailsOnce as a remote service that owns naming presents
// itself, to the agent as both the name and the file service: serving
// CreatePath it creates, registers the name and — when asked by
// attr.RefCount — opens the file, undoing the earlier steps when a later one
// fails; serving Delete it unregisters the name.
type pathOwner struct {
	openFailsOnce
	*naming.Service
}

func (f *pathOwner) CreatePath(attr fit.Attributes, path string) (fileservice.FileID, error) {
	if attr.RefCount > 1 {
		return 0, fmt.Errorf("create asks for %d opens", attr.RefCount)
	}
	id, err := f.Create(attr)
	if err != nil {
		return 0, err
	}
	if err := f.Register(naming.Entry{
		Name: naming.Name{"type": "FILE", "path": path}, Type: naming.FileObject, SystemName: uint64(id), Service: "fs0",
	}); err != nil {
		_ = f.FileService.Delete(id)
		return 0, err
	}
	if attr.RefCount == 1 {
		if err := f.Open(id); err != nil {
			f.UnregisterSystemName(naming.FileObject, uint64(id))
			_ = f.FileService.Delete(id)
			return 0, err
		}
	}
	return id, nil
}

func (f *pathOwner) Delete(id fileservice.FileID) error {
	if err := f.FileService.Delete(id); err != nil {
		return err
	}
	f.UnregisterSystemName(naming.FileObject, uint64(id))
	return nil
}

// A Create whose open fails reports that no file was created, so none may be
// left behind: the path does not resolve, the file service holds nothing, and
// the same path can be created again.
func TestCreateLeavesNothingWhenOpenFails(t *testing.T) {
	errOpen := errors.New("open refused")
	for name, wrap := range map[string]func(r *rig) MachineConfig{
		"agent registers the name": func(r *rig) MachineConfig {
			return MachineConfig{Naming: r.nm, Files: &openFailsOnce{FileService: r.fs, err: errOpen}}
		},
		"service registers the name": func(r *rig) MachineConfig {
			po := &pathOwner{openFailsOnce: openFailsOnce{FileService: r.fs, err: errOpen}, Service: r.nm}
			return MachineConfig{Naming: po, Files: po}
		},
	} {
		t.Run(name, func(t *testing.T) {
			r := newRig(t)
			m, err := NewMachine(wrap(r))
			if err != nil {
				t.Fatal(err)
			}
			p, fa := m.NewProcess(), m.FileAgent()
			if _, err := fa.Create(p, "/retry", fit.Attributes{}); !errors.Is(err, errOpen) {
				t.Fatalf("Create with a failing open = %v, want %v", err, errOpen)
			}
			if e, err := r.nm.ResolvePath("/retry"); !errors.Is(err, naming.ErrNotFound) {
				t.Fatalf("after the failed Create the path resolves to %+v (err %v)", e, err)
			}
			if ids, err := r.fs.List(); err != nil || len(ids) != 0 {
				t.Fatalf("after the failed Create the file service lists %v (err %v)", ids, err)
			}
			fd, err := fa.Create(p, "/retry", fit.Attributes{})
			if err != nil {
				t.Fatalf("second Create of the same path: %v", err)
			}
			// Open exactly once, whichever side opened it.
			if attr, err := fa.GetAttribute(p, fd); err != nil || attr.RefCount != 1 {
				t.Fatalf("created file RefCount = %d (err %v), want 1", attr.RefCount, err)
			}
			if err := fa.Close(p, fd); err != nil {
				t.Fatal(err)
			}
		})
	}
}
