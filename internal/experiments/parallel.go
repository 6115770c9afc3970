package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/obs"
	"repro/internal/txn"
	"repro/internal/workload"
)

// E16 parameters. The workload is deliberately larger than one disk's
// comfortable queue: several clients, each with its own striped file, so
// disk parallelism — not client concurrency — is the resource under test.
const (
	e16Clients    = 8
	e16FileSize   = 2 << 20 // per client (reads)
	e16WriteSize  = 1 << 20 // per client (write-through mix)
	e16ChunkSize  = 512 << 10
	e16ReadPasses = 2
	// The transaction mix commits less data per client: every chunk write
	// stages intentions and every commit walks the WAL, so the same volume
	// would dominate the run without adding information.
	e16TxnSize  = 256 << 10
	e16TxnChunk = 64 << 10
	// e16WallFactor makes each disk reference occupy its spindle for
	// cost*factor of real time, so wall-clock throughput reflects genuine
	// per-spindle serialization. It is set so the shortest sleeps on the
	// parallel path (one ~40 ms stripe-unit access → ~4 ms) stay well above
	// OS timer jitter even on a single-CPU host.
	e16WallFactor = 0.1
)

// E16ParallelThroughput measures wall-clock throughput of the parallel I/O
// path: N client goroutines over M disks, striped files, read, write-through
// and transactional mixes. Unlike E1–E15, which report deterministic virtual
// time and operation counts, this experiment times real elapsed seconds —
// the per-disk dispatch, per-file locking and scatter-gather fan-out are
// what make the curve climb with the disk count.
//
// The run is driven through the client agents with one shared observability
// recorder, so the resulting table carries a per-layer latency profile
// (agent → fileservice → lock/txn → diskservice → device) of the whole
// matrix.
func E16ParallelThroughput() (*Table, error) {
	rec := obs.New()
	t := &Table{
		ID:      "E16",
		Title:   "Wall-clock parallel throughput: 8 clients over 1/2/4/8 disks",
		Claim:   "independent per-disk request paths scale wall-clock ops/sec with the disk count",
		Columns: []string{"workload", "disks", "clients", "ops", "wall time", "ops/sec", "MB/s", "speedup"},
	}
	for _, mix := range []string{"read", "write", "txn"} {
		var base float64
		for _, disks := range []int{1, 2, 4, 8} {
			res, err := e16Run(mix, disks, rec)
			if err != nil {
				return nil, err
			}
			opsPerSec := float64(res.ops) / res.wall.Seconds()
			if disks == 1 {
				base = opsPerSec
			}
			mbPerSec := float64(res.bytes) / (1 << 20) / res.wall.Seconds()
			t.AddRow(mix, disks, e16Clients, res.ops, fmtDuration(res.wall),
				fmt.Sprintf("%.0f", opsPerSec), fmt.Sprintf("%.1f", mbPerSec), opsPerSec/base)
		}
	}
	t.Notes = append(t.Notes,
		"wall-clock measurement (not virtual time): each disk reference occupies its spindle for cost*0.1 of real time",
		"read mix: striped sequential reads via the file agent (client cache off), caches invalidated between passes",
		"write mix: write-through (transaction-service) files via the file agent; txn mix: one transaction per client per pass",
		"the per-layer latency profile below aggregates every cell of the matrix")
	t.Profile = rec.Profile()
	return t, nil
}

type e16Result struct {
	ops   int
	bytes int64
	wall  time.Duration
}

// e16Run times one (mix, disks) cell: setup runs with instantaneous
// disks, then spindle occupancy is switched on and the clients run
// concurrently. The shared recorder accumulates the per-layer latency
// histograms across all cells.
func e16Run(mix string, disks int, rec *obs.Recorder) (e16Result, error) {
	c, err := core.New(core.Config{
		Disks:    disks,
		Geometry: device.Geometry{FragmentsPerTrack: 32, Tracks: 1024}, // 64 MB each
		Stripe:   fileservice.Spread, StripeUnitBlocks: 16,             // 128 KB units
		ServerCacheBlocks: 4096,
		DisableReadAhead:  true, // isolate the striping effect from track caching
		// The client cache is off so every timed access descends the full
		// stack; the agent layer still brackets it in the trace.
		DisableClientCache: true,
		Obs:                rec,
	})
	if err != nil {
		return e16Result{}, err
	}
	defer func() { _ = c.Close() }()

	if mix == "txn" {
		return e16RunTxn(c)
	}

	m, err := c.NewMachine()
	if err != nil {
		return e16Result{}, err
	}
	fa, proc := m.FileAgent(), m.NewProcess()

	attr := fit.Attributes{}
	if mix == "write" {
		// Transaction-service files are written through: every chunk write
		// reaches the disks inside the timed region.
		attr.Service = fit.ServiceTransaction
	}
	fds := make([]int, e16Clients)
	for i := range fds {
		fd, err := fa.Create(proc, fmt.Sprintf("/e16/%s/%d/client%d", mix, disks, i), attr)
		if err != nil {
			return e16Result{}, err
		}
		fds[i] = fd
	}
	chunk := make([]byte, e16ChunkSize)
	if mix == "read" {
		// Materialize the files up front (instantaneous disks) so the timed
		// phase is pure reading.
		for _, fd := range fds {
			for off := 0; off < e16FileSize; off += len(chunk) {
				if _, err := fa.PWrite(proc, fd, int64(off), chunk); err != nil {
					return e16Result{}, err
				}
			}
		}
		if err := c.Files.Flush(); err != nil {
			return e16Result{}, err
		}
	}

	for i := 0; i < c.Disks(); i++ {
		c.Device(i).SetWallFactor(e16WallFactor)
	}

	// Each pass is every client streaming its file once in chunk-sized
	// sequential operations: all reads or all writes.
	pass := workload.LoadConfig{OpSize: e16ChunkSize, FileSize: e16FileSize, Sequential: true, ReadFrac: 1}
	passes := e16ReadPasses
	if mix == "write" {
		passes, pass.FileSize, pass.ReadFrac = 1, e16WriteSize, 0
	}
	pass.OpsPerAgent = int(pass.FileSize) / e16ChunkSize
	agents := make([]workload.LoadAgent, len(fds))
	for i, fd := range fds {
		agents[i] = fdAgent(fa, proc, fd)
	}

	var res e16Result
	for p := 0; p < passes; p++ {
		if mix == "read" {
			// Force the pass back to the platters; otherwise the block cache
			// absorbs everything after the first pass.
			c.InvalidateCaches()
		}
		r, err := workload.Run(pass, agents)
		if err != nil {
			return e16Result{}, err
		}
		res.wall += r.Wall
		res.ops += r.Ops
		res.bytes += r.Bytes
	}
	// Run the teardown flush at full speed again.
	for i := 0; i < c.Disks(); i++ {
		c.Device(i).SetWallFactor(0)
	}
	return res, nil
}

// e16RunTxn is the transactional cell: each client runs one transaction per
// pass — begin, stage e16TxnSize bytes of page intentions in e16TxnChunk
// writes, commit. The lock and transaction layers do real work here, so
// their rows in the latency profile carry the 2PL acquire and commit costs.
func e16RunTxn(c *core.Cluster) (e16Result, error) {
	fids := make([]fileservice.FileID, e16Clients)
	txns := make([]txn.TxnID, e16Clients)
	for i := range fids {
		id, err := c.Txns.Begin(i + 1)
		if err != nil {
			return e16Result{}, err
		}
		fid, err := c.Txns.Create(id, fit.Attributes{Locking: fit.LockPage})
		if err != nil {
			return e16Result{}, err
		}
		if err := c.Txns.End(id); err != nil {
			return e16Result{}, err
		}
		fids[i] = fid
	}

	for i := 0; i < c.Disks(); i++ {
		c.Device(i).SetWallFactor(e16WallFactor)
	}
	chunk := make([]byte, e16TxnChunk)
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, e16Clients)
	for i := range fids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, err := c.Txns.Begin(i + 1)
			if err != nil {
				errs[i] = err
				return
			}
			txns[i] = id
			if err := c.Txns.Open(id, fids[i], fit.LockPage); err != nil {
				errs[i] = err
				return
			}
			for off := 0; off < e16TxnSize; off += e16TxnChunk {
				if _, err := c.Txns.PWrite(id, fids[i], int64(off), chunk); err != nil {
					errs[i] = err
					return
				}
			}
			errs[i] = c.Txns.End(id)
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return e16Result{}, err
		}
	}
	for i := 0; i < c.Disks(); i++ {
		c.Device(i).SetWallFactor(0)
	}
	ops := e16Clients * (e16TxnSize / e16TxnChunk)
	return e16Result{ops: ops, bytes: int64(ops) * e16TxnChunk, wall: wall}, nil
}
