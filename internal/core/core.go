// Package core assembles the complete RHODOS distributed file facility of
// Figure 1: simulated drives with stable-storage mirrors at the bottom, one
// disk server per drive, the basic file service and the transaction service
// (with its write-ahead log) above them, the naming service beside them, and
// per-machine client agents on top, each over its machine's client cache.
//
// A Cluster is one facility instance. It can be crashed and rebooted
// (Cluster.Crash), which discards all volatile state and remounts everything
// from the surviving media — the substrate for the recovery experiments and
// examples.
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/agent"
	"repro/internal/ccache"
	"repro/internal/device"
	"repro/internal/diskservice"
	"repro/internal/fault"
	"repro/internal/fileservice"
	"repro/internal/intentions"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/naming"
	"repro/internal/obs"
	"repro/internal/parity"
	"repro/internal/simclock"
	"repro/internal/stable"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Layout selects how the file service's storage backends map onto the
// physical disks.
type Layout int

const (
	// The zero Layout is the paper's arrangement: one backend per disk, files
	// striped across them by extent placement (the default).
	_ Layout = iota
	// LayoutParity presents all disks as one rotating-parity array
	// (K data + 1 parity): single-disk-failure tolerance at (K+1)/K storage
	// overhead, with degraded reads and online rebuild. Requires Disks >= 3.
	LayoutParity
)

// Config sizes and tunes a cluster. The zero value is usable: one 64 MB
// disk, 1 MB log, default caches.
type Config struct {
	// Disks is the number of data disks (default 1).
	Disks int
	// Layout arranges the disks under the file service (default: one backend
	// per disk).
	Layout Layout
	// Geometry sizes each disk (default device.DefaultGeometry, 64 MB).
	Geometry device.Geometry
	// LogFragments sizes the write-ahead log region (default 512 = 1 MB).
	LogFragments int
	// ServerCacheBlocks sizes the file-service cache.
	ServerCacheBlocks int
	// Stripe selects extent placement (default Locality).
	Stripe fileservice.StripePolicy
	// StripeUnitBlocks is the Spread policy's unit.
	StripeUnitBlocks int
	// LT and MaxRenewals configure deadlock timeouts (§6.4).
	LT          time.Duration
	MaxRenewals int
	// Clock is the lock manager's clock, and through it the group-commit
	// linger's and the LT sweeper's; node.Start hands it on to the lease
	// managers and the cluster service. nil means wall time.
	Clock simclock.Clock
	// Metrics receives all counters; created if nil.
	Metrics *metrics.Set
	// ForceTechnique overrides the §6.7 commit-technique rule (ablation E8).
	ForceTechnique intentions.Technique
	// GroupCommit configures batched commit-record syncing on the
	// transaction service (E19). Zero value = enabled with defaults; set
	// GroupCommit.Disable for the one-sync-per-commit baseline.
	GroupCommit txn.GroupCommitConfig
	// Ablations.
	DisableReadAhead   bool // disk-service track cache off (E5)
	DisableClientCache bool // machines get no client cache (E6)
	// Fault is the deterministic fault injector threaded through the storage
	// stack (devices, stable stores, the WAL, the commit sequence, parity
	// rebuild). It survives Crash remounts, so a schedule armed before the
	// crash stays armed on the rebooted services. Optional; nil injects
	// nothing.
	Fault *fault.Injector
	// Obs is the observability recorder threaded through every layer:
	// spans, per-layer latency histograms, queue-depth gauges, and the
	// flight recorder. Its virtual clock is bound to the cluster's makespan,
	// and Fault (when both are set) is wired to dump the flight recorder the
	// instant a fault fires. Optional; nil disables all tracing.
	Obs *obs.Recorder
}

func (c *Config) fillDefaults() {
	if c.Disks <= 0 {
		c.Disks = 1
	}
	if c.Geometry == (device.Geometry{}) {
		c.Geometry = device.DefaultGeometry
	}
	if c.LogFragments <= 0 {
		c.LogFragments = 512
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewSet()
	}
	c.Clock = simclock.Or(c.Clock)
}

// Cluster is one assembled facility.
type Cluster struct {
	cfg Config

	// Metrics is the shared counter set.
	Metrics *metrics.Set
	// Naming is the naming service.
	Naming *naming.Service
	// Files is the basic file service.
	Files *fileservice.Service
	// Txns is the transaction service.
	Txns *txn.Service
	// Log is the write-ahead log.
	Log *wal.Log

	devices    []*device.Disk
	timeGroup  *simclock.Group
	diskClocks []*simclock.Member
	stables    []*stable.Store
	logDevs    [2]*device.Disk
	logStable  *stable.Store
	logStart   int
	servers    []*diskservice.Server
	parity     *parity.Array // nil unless LayoutParity
	locks      *lock.Manager
	stopSweep  func() // the running deadlock sweeper's stop; nil when none runs

	// caches are the client caches of the machines NewMachine built, kept so
	// Flush and InvalidateCaches reach every cache level.
	cacheMu sync.Mutex
	caches  []*ccache.Client
}

// New builds a fresh cluster (all disks formatted).
func New(cfg Config) (*Cluster, error) {
	cfg.fillDefaults()
	c := &Cluster{cfg: cfg, Metrics: cfg.Metrics, Naming: naming.NewService(), timeGroup: simclock.NewGroup()}
	if cfg.Obs != nil {
		cfg.Obs.SetVirtualClock(c.timeGroup.Elapsed)
		if cfg.Fault != nil {
			rec := cfg.Obs
			cfg.Fault.SetObserver(func(ev fault.Event) {
				rec.RecordFault(string(ev.Point), ev.Kind.String())
			})
		}
	}
	// Data disks, their stable mirrors, and their servers. Each disk gets a
	// member clock of one shared group, so concurrently dispatched transfers
	// on different disks occupy overlapping virtual intervals.
	for i := 0; i < cfg.Disks; i++ {
		clk := c.timeGroup.NewMember()
		d, err := device.New(cfg.Geometry,
			device.WithMetrics(cfg.Metrics), device.WithClock(clk),
			device.WithFault(cfg.Fault), device.WithObs(cfg.Obs))
		if err != nil {
			return nil, err
		}
		sp, err := device.New(cfg.Geometry)
		if err != nil {
			return nil, err
		}
		sm, err := device.New(cfg.Geometry)
		if err != nil {
			return nil, err
		}
		st, err := stable.NewStore(sp, sm, stable.WithMetrics(cfg.Metrics), stable.WithFault(cfg.Fault))
		if err != nil {
			return nil, err
		}
		c.devices = append(c.devices, d)
		c.diskClocks = append(c.diskClocks, clk)
		c.stables = append(c.stables, st)
		srv, err := diskservice.Format(diskservice.Config{
			DiskID: i, Disk: d, Stable: st, Metrics: cfg.Metrics,
			DisableReadAhead: cfg.DisableReadAhead,
			Obs:              cfg.Obs,
		})
		if err != nil {
			return nil, err
		}
		c.servers = append(c.servers, srv)
	}
	// Log stable pair.
	logGeom := device.Geometry{FragmentsPerTrack: 32, Tracks: (cfg.LogFragments + 31) / 32}
	var err error
	c.logDevs[0], err = device.New(logGeom)
	if err != nil {
		return nil, err
	}
	c.logDevs[1], err = device.New(logGeom)
	if err != nil {
		return nil, err
	}
	c.logStable, err = stable.NewStore(c.logDevs[0], c.logDevs[1],
		stable.WithMetrics(cfg.Metrics), stable.WithFault(cfg.Fault))
	if err != nil {
		return nil, err
	}
	c.logStart, err = c.logStable.Allocate(cfg.LogFragments)
	if err != nil {
		return nil, err
	}
	if err := c.buildArray(); err != nil {
		return nil, err
	}
	return c, c.buildServices(true)
}

// buildArray assembles the parity array over the current disk servers when
// the parity layout is selected (also after Crash remounts the servers).
func (c *Cluster) buildArray() error {
	if c.cfg.Layout != LayoutParity {
		return nil
	}
	var err error
	c.parity, err = parity.New(parity.Config{
		Disks:   c.servers,
		Metrics: c.cfg.Metrics,
		Overlap: c.timeGroup,
		Fault:   c.cfg.Fault,
		Obs:     c.cfg.Obs,
	})
	if err != nil {
		return fmt.Errorf("core: building parity array: %w", err)
	}
	return nil
}

// buildServices constructs (or reconstructs) the volatile service layer over
// the current devices. fresh selects New vs Mount for the file service.
func (c *Cluster) buildServices(fresh bool) error {
	backends := fileservice.Servers(c.servers...)
	if c.parity != nil {
		backends = []fileservice.Backend{c.parity}
	}
	fsCfg := fileservice.Config{
		Disks:            backends,
		Metrics:          c.cfg.Metrics,
		CacheBlocks:      c.cfg.ServerCacheBlocks,
		Stripe:           c.cfg.Stripe,
		StripeUnitBlocks: c.cfg.StripeUnitBlocks,
		Overlap:          c.timeGroup,
		Obs:              c.cfg.Obs,
	}
	var err error
	if fresh {
		c.Files, err = fileservice.New(fsCfg)
	} else {
		c.Files, err = fileservice.Mount(fsCfg)
	}
	if err != nil {
		return err
	}
	c.Log, err = wal.Open(c.logStable, c.logStart, c.cfg.LogFragments,
		wal.WithFault(c.cfg.Fault), wal.WithObs(c.cfg.Obs), wal.WithMetrics(c.cfg.Metrics))
	if err != nil {
		return err
	}
	c.locks = lock.New(lock.Config{
		Clock: c.cfg.Clock, LT: c.cfg.LT, MaxRenewals: c.cfg.MaxRenewals,
		Metrics: c.cfg.Metrics, Obs: c.cfg.Obs,
	})
	c.Txns, err = txn.New(txn.Config{
		Files: c.Files, Log: c.Log, Locks: c.locks,
		Metrics: c.cfg.Metrics, ForceTechnique: c.cfg.ForceTechnique,
		Fault: c.cfg.Fault, Obs: c.cfg.Obs, Group: c.cfg.GroupCommit,
	})
	return err
}

// NewMachine creates a client machine attached to the cluster's services,
// the in-process counterpart of node.Client.NewMachine: the agents over the
// machine's client cache (§5) — a local-mode ccache.Client, there being no
// wire for a lease to cross — over the file service.
func (c *Cluster) NewMachine() (*agent.Machine, error) {
	var files agent.FileService = c.Files
	if !c.cfg.DisableClientCache {
		cc, err := ccache.New(ccache.Config{Inner: c.Files, Obs: c.cfg.Obs})
		if err != nil {
			return nil, err
		}
		c.cacheMu.Lock()
		c.caches = append(c.caches, cc)
		c.cacheMu.Unlock()
		files = cc
	}
	return agent.NewMachine(agent.MachineConfig{
		Naming: c.Naming,
		Files:  files,
		Txns:   c.Txns,
		Obs:    c.cfg.Obs,
	})
}

// clientCaches returns the caches of the machines built so far.
func (c *Cluster) clientCaches() []*ccache.Client {
	c.cacheMu.Lock()
	defer c.cacheMu.Unlock()
	return c.caches // appended to, never written in place
}

// Obs returns the observability recorder, or nil when tracing is disabled.
func (c *Cluster) Obs() *obs.Recorder { return c.cfg.Obs }

// StartSweeper runs the deadlock-timeout sweeper in the background; stop it
// with StopSweeper (or Close).
func (c *Cluster) StartSweeper(interval time.Duration) {
	if c.stopSweep == nil {
		c.stopSweep = c.locks.StartSweeper(interval)
	}
}

// StopSweeper stops the background sweeper.
func (c *Cluster) StopSweeper() {
	if c.stopSweep != nil {
		c.stopSweep()
		c.stopSweep = nil
	}
}

// Locks exposes the lock manager (experiments).
func (c *Cluster) Locks() *lock.Manager { return c.locks }

// DiskServer returns disk server i.
func (c *Cluster) DiskServer(i int) *diskservice.Server { return c.servers[i] }

// Device returns drive i (failure injection in tests and examples).
func (c *Cluster) Device(i int) *device.Disk { return c.devices[i] }

// SetLogWallFactor scales real sleeps on the write-ahead log's stable pair
// so wall-clock experiments (E19) can charge commit barriers a realistic
// latency. The data disks are unaffected; see device.SetWallFactor.
func (c *Cluster) SetLogWallFactor(f float64) {
	c.logDevs[0].SetWallFactor(f)
	c.logDevs[1].SetWallFactor(f)
}

// Parity returns the parity array, or nil unless LayoutParity.
func (c *Cluster) Parity() *parity.Array { return c.parity }

// Disks returns the number of data disks.
func (c *Cluster) Disks() int { return len(c.devices) }

// DiskTimes returns each disk's accumulated virtual busy time.
func (c *Cluster) DiskTimes() []time.Duration {
	out := make([]time.Duration, len(c.diskClocks))
	for i, clk := range c.diskClocks {
		out[i] = clk.Now()
	}
	return out
}

// Makespan returns the overlap-aware virtual completion time of all disk
// work so far: transfers dispatched to different disks concurrently (the
// striped scatter-gather paths) occupy overlapping intervals, strictly
// sequential transfers sum — the parallel-transfer completion time for
// striped workloads (E14).
func (c *Cluster) Makespan() time.Duration {
	return c.timeGroup.Elapsed()
}

// InvalidateCaches drops every cache level (cold-start for experiments).
func (c *Cluster) InvalidateCaches() {
	for _, cc := range c.clientCaches() {
		cc.DropLeases(nil) // clean blocks go; delayed writes stay for Flush
	}
	c.Files.InvalidateCaches()
	c.Files.DropFITCache()
}

// Crash simulates a machine crash and reboot: all volatile state (caches,
// lock tables, live transactions, unsynced log records) is lost; the disks
// and stable storage survive; services are remounted. Run Recover afterwards
// to redo committed transactions.
func (c *Cluster) Crash() error {
	c.cacheMu.Lock()
	c.caches = nil // the machines died with their delayed writes
	c.cacheMu.Unlock()
	c.StopSweeper()
	c.locks.Close() // volatile lock tables die with the machine
	c.Log.DropUnsynced()
	// Remount disk servers from media.
	for i := range c.servers {
		srv, err := diskservice.Mount(diskservice.Config{
			DiskID: i, Disk: c.devices[i], Stable: c.stables[i], Metrics: c.cfg.Metrics,
			DisableReadAhead: c.cfg.DisableReadAhead,
			Obs:              c.cfg.Obs,
		})
		if err != nil {
			return fmt.Errorf("core: remounting disk %d: %w", i, err)
		}
		c.servers[i] = srv
	}
	if err := c.buildArray(); err != nil {
		return err
	}
	return c.buildServices(false)
}

// Recover replays the write-ahead log after Crash, redoing committed
// transactions. It returns how many were redone.
func (c *Cluster) Recover() (int, error) {
	return c.Txns.Recover()
}

// StableRecoverAll reconciles every stable-storage mirror pair and returns
// one RecoveryReport per store: the data disks' stores in order, then the
// log store last. The torture harness uses the reports to prove the mirrors
// reconciled (a second pass must report zero repairs and zero divergence).
func (c *Cluster) StableRecoverAll() ([]stable.RecoveryReport, error) {
	out := make([]stable.RecoveryReport, 0, len(c.stables)+1)
	for i, st := range c.stables {
		rep, err := st.Recover()
		if err != nil {
			return out, fmt.Errorf("core: stable recovery of disk %d: %w", i, err)
		}
		out = append(out, rep)
	}
	rep, err := c.logStable.Recover()
	if err != nil {
		return out, fmt.Errorf("core: stable recovery of the log store: %w", err)
	}
	return append(out, rep), nil
}

// Flush makes all buffered state durable (flush-block all the way down,
// starting with the machines' delayed writes).
func (c *Cluster) Flush() error {
	for _, cc := range c.clientCaches() {
		if err := cc.Flush(); err != nil {
			return err
		}
	}
	if err := c.Files.Flush(); err != nil {
		return err
	}
	return c.Log.Sync()
}

// Close shuts the cluster down, flushing everything.
func (c *Cluster) Close() error {
	c.StopSweeper()
	c.locks.Close()
	var firstErr error
	if err := c.Files.Shutdown(); err != nil && !errors.Is(err, fileservice.ErrClosed) {
		firstErr = err
	}
	for _, st := range c.stables {
		if err := st.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := c.logStable.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
