// Package agent implements the client side of the RHODOS client-server
// interface (§3): the per-machine file agent, transaction agent and device
// agent, and the per-process object-descriptor tables.
//
// Client processes acquire every service through these agents. Names are
// attributed names, resolved to system names by the naming service; after
// opening, each instance of an open device or file is identified by an
// integer object descriptor. Descriptors returned by the device agent are
// always below DescriptorBase (100,000); descriptors returned by the file
// and transaction agents are always above it, which is what makes I/O
// redirection representable (§3): a process's stdout/stdin/stderr variables
// default to 0/1/2 and are set to 100001/100002/100003 when redirected to a
// file.
//
// The file agent is names, descriptors and cursors. §5's client cache
// ("the file agent caches file data in the client's machine with the
// delayed-write policy") is the machine's ccache.Client, which the assembly
// (core.Cluster.NewMachine in process, node.Client.NewMachine on the wire)
// hands in as MachineConfig.Files; the agent does not know whether one is
// there. The transaction agent is event-driven (§2.1, §7): it comes into
// existence with the first tbegin on the machine and ceases to exist when
// the last transaction completes or aborts.
//
// A mediumweight process shares its descriptor tables with its parent via
// process-twin; only processes using basic-file semantics may twin, because
// inheriting transaction descriptors would threaten serializability (§3).
package agent

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/naming"
	"repro/internal/obs"
	"repro/internal/txn"
)

// DescriptorBase separates device descriptors (below) from file and
// transaction descriptors (above), as §3 prescribes.
const DescriptorBase = 100000

// Redirection descriptors (§3).
const (
	RedirectedStdout = DescriptorBase + 1
	RedirectedStdin  = DescriptorBase + 2
	RedirectedStderr = DescriptorBase + 3
)

// Errors.
var (
	ErrBadDescriptor = errors.New("agent: bad object descriptor")
	ErrNotDevice     = errors.New("agent: descriptor is not a device")
	ErrNotFile       = errors.New("agent: descriptor is not a file")
	ErrTwinWithTxns  = errors.New("agent: process with live transactions cannot process-twin")
	ErrNoDevice      = errors.New("agent: no such device")
)

// FileService is the interface the file agent needs from the basic file
// service; *fileservice.Service implements it, as does the RPC-backed proxy.
// The data path takes the caller's context, so the service's spans join the
// agent's trace.
type FileService interface {
	Create(attr fit.Attributes) (fileservice.FileID, error)
	Open(id fileservice.FileID) error
	Close(id fileservice.FileID) error
	Delete(id fileservice.FileID) error
	ReadAtCtx(ctx context.Context, id fileservice.FileID, off int64, n int) ([]byte, error)
	WriteAtCtx(ctx context.Context, id fileservice.FileID, off int64, data []byte) (int, error)
	// ReadAt and WriteAt are the data path without a context: every
	// implementation's one-line delegate (its compat.go), declared here
	// because bench/wrap.go calls them through this interface. ROADMAP item
	// 8 deletes them and drops the Ctx suffix above.
	ReadAt(id fileservice.FileID, off int64, n int) ([]byte, error)
	WriteAt(id fileservice.FileID, off int64, data []byte) (int, error)
	Truncate(id fileservice.FileID, size int64) error
	Attributes(id fileservice.FileID) (fit.Attributes, error)
	Size(id fileservice.FileID) (int64, error)
}

var _ FileService = (*fileservice.Service)(nil)

// NameService is the interface the agents need from the naming service (§3's
// name evaluation plus registration). *naming.Service implements it locally;
// the cluster router implements it over the wire, routing each name to its
// home shard.
type NameService interface {
	Register(e naming.Entry) error
	Resolve(query naming.Name) (naming.Entry, error)
	ResolvePath(path string) (naming.Entry, error)
	UnregisterSystemName(t naming.ObjectType, sys uint64) int
}

var _ NameService = (*naming.Service)(nil)

// PathCreator is the optional one-round-trip form of create-and-register: a
// remote name service that implements it (the cluster router) creates the
// file and registers its naming entry on the server that owns the path (its
// home shard), so creation does not need a second registration message from
// the client. The agent asks the machine's name service, which owns the
// name, not its file service, which may be a client cache over the same
// servers.
//
// attr.RefCount asks for the file back open: 1 opens it once on the server
// after registering it, so the agent's Create sends no separate open, and 0
// leaves it closed. Any other count is refused and nothing is created. A
// step that fails undoes the steps before it — no name, file or open
// reference survives a failed CreatePath.
type PathCreator interface {
	CreatePath(attr fit.Attributes, path string) (fileservice.FileID, error)
}

// Machine hosts one computer's agents.
type Machine struct {
	naming NameService
	files  FileService
	txns   *txn.Service
	obsRec *obs.Recorder

	fileAgent   *FileAgent
	deviceAgent *DeviceAgent

	mu       sync.Mutex
	txnAgent *TransactionAgent // nil while no transaction is live (§7)
	nextPID  int
}

// MachineConfig configures a Machine.
type MachineConfig struct {
	// Naming resolves attributed names. Required. A *naming.Service serves a
	// single node; a cluster router shards names across servers.
	Naming NameService
	// Files is the basic file service. Required.
	Files FileService
	// Txns is the transaction service; nil disables transaction operations.
	Txns *txn.Service
	// Metrics and DisableClientCache are inert: the agent has no cache to
	// count or switch off. bench/workloads.go sets the first, bench/rig.go
	// the second; ROADMAP item 8 deletes them. (E6's switch is
	// core.Config.DisableClientCache.)
	Metrics            any
	DisableClientCache bool
	// Obs receives agent-layer spans; agent calls root new span trees.
	// Optional; nil disables tracing.
	Obs *obs.Recorder
}

// NewMachine builds a machine with its file and device agents. The
// transaction agent is created on demand.
func NewMachine(cfg MachineConfig) (*Machine, error) {
	if cfg.Naming == nil {
		return nil, errors.New("agent: nil naming service")
	}
	if cfg.Files == nil {
		return nil, errors.New("agent: nil file service")
	}
	m := &Machine{naming: cfg.Naming, files: cfg.Files, txns: cfg.Txns, obsRec: cfg.Obs}
	m.fileAgent = &FileAgent{machine: m}
	m.deviceAgent = newDeviceAgent(m)
	return m, nil
}

// FileAgent returns the machine's file agent.
func (m *Machine) FileAgent() *FileAgent { return m.fileAgent }

// DeviceAgent returns the machine's device agent.
func (m *Machine) DeviceAgent() *DeviceAgent { return m.deviceAgent }

// transactionAgent returns the agent, creating it on first use.
func (m *Machine) transactionAgent() (*TransactionAgent, error) {
	if m.txns == nil {
		return nil, errors.New("agent: machine has no transaction service")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.txnAgent == nil {
		m.txnAgent = &TransactionAgent{machine: m}
	}
	return m.txnAgent, nil
}

// NewProcess creates a client process with default standard descriptors.
func (m *Machine) NewProcess() *Process {
	m.mu.Lock()
	m.nextPID++
	pid := m.nextPID
	m.mu.Unlock()
	p := &Process{
		machine:  m,
		pid:      pid,
		descs:    make(map[int]*descriptor),
		nextDev:  3, // 0,1,2 are the default stdin/stdout/stderr
		nextFile: DescriptorBase + 10,
		Stdin:    0,
		Stdout:   1,
		Stderr:   2,
	}
	return p
}

// descriptor kinds.
type descKind int

const (
	descDevice descKind = iota + 1
	descFile
	descTxnFile
)

// descriptor is one open object instance.
type descriptor struct {
	kind   descKind
	device string // device system name
	file   fileservice.FileID
	cursor int64
	txn    txn.TxnID
}

// Process is a client process: a descriptor table plus the three standard
// environment variables.
type Process struct {
	machine *Machine
	pid     int

	mu       sync.Mutex
	descs    map[int]*descriptor
	nextDev  int
	nextFile int
	txns     map[txn.TxnID]bool

	// Stdin, Stdout and Stderr are the process's global environment
	// variables (§3): 0/1/2 by default, 100001+ when redirected.
	Stdin, Stdout, Stderr int
}

func (p *Process) desc(fd int) (*descriptor, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d, ok := p.descs[fd]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrBadDescriptor, fd)
	}
	return d, nil
}

// addFileDesc allocates a file descriptor (> DescriptorBase).
func (p *Process) addFileDesc(d *descriptor) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	fd := p.nextFile
	p.nextFile++
	p.descs[fd] = d
	return fd
}

// addDeviceDesc allocates a device descriptor (< DescriptorBase).
func (p *Process) addDeviceDesc(d *descriptor) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	fd := p.nextDev
	p.nextDev++
	p.descs[fd] = d
	return fd
}

// Twin creates a mediumweight child process sharing the parent's text and
// data space: the child inherits all object descriptors of the devices and
// files opened by the parent (§3). A process with live transactions cannot
// twin, because inheriting transaction descriptors would threaten
// serializability.
func (p *Process) Twin() (*Process, error) {
	p.mu.Lock()
	if len(p.txns) > 0 {
		p.mu.Unlock()
		return nil, ErrTwinWithTxns
	}
	p.mu.Unlock()

	child := p.machine.NewProcess()
	p.mu.Lock()
	defer p.mu.Unlock()
	for fd, d := range p.descs {
		cp := *d
		child.descs[fd] = &cp
	}
	child.nextDev = p.nextDev
	child.nextFile = p.nextFile
	child.Stdin, child.Stdout, child.Stderr = p.Stdin, p.Stdout, p.Stderr
	return child, nil
}
