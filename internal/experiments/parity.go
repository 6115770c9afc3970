package experiments

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/diskservice"
	"repro/internal/fit"
	"repro/internal/metrics"
)

// E17Parity exercises the rotating-parity striped layout (internal/parity)
// against the §2.1 reliability goal by a cheaper route than E15's
// replication: single-disk-failure tolerance at (K+1)/K storage overhead
// instead of 2x, degraded reads that XOR-reconstruct the lost unit, and an
// online rebuild whose result is byte-identical to the pre-failure file.
func E17Parity() (*Table, error) {
	t := &Table{
		ID:    "E17",
		Title: "Parity-striped layout: overhead, degraded reads, online rebuild",
		Claim: "one-disk-failure tolerance at (K+1)/K storage overhead (replication pays 2.00x, E15); degraded reads reconstruct by XOR; online rebuild restores byte-identical redundancy",
		Columns: []string{"disks", "overhead", "repl overhead", "healthy read", "degraded read",
			"degraded reads ok", "degraded writes ok", "rebuild", "rebuilt stripes", "post-rebuild match"},
	}
	for _, disks := range []int{3, 5} {
		r, err := e17Run(disks)
		if err != nil {
			return nil, fmt.Errorf("E17 %d disks: %w", disks, err)
		}
		t.AddRow(disks, fmt.Sprintf("%.2fx", r.overhead), "2.00x",
			r.healthyRead, r.degradedRead,
			fmt.Sprintf("%d/%d", r.readsOK, r.chunks), fmt.Sprintf("%d/%d", r.writesOK, r.writes),
			r.rebuild, r.rebuiltStripes, r.match)
	}
	t.Notes = append(t.Notes,
		"overhead is (K+1)/K raw fragments per data fragment — 1.50x at 3 disks, 1.25x at 5 — vs 2.00x for the smallest replicated configuration",
		"degraded reads stay correct with one disk down; each lost unit costs K survivor reads plus an XOR, fanned out across the surviving spindles",
		"rebuild runs online: concurrent reads and writes proceed under the advancing stripe watermark")
	return t, nil
}

type e17Result struct {
	overhead         float64
	healthyRead      time.Duration
	degradedRead     time.Duration
	readsOK, chunks  int
	writesOK, writes int
	rebuild          time.Duration
	rebuiltStripes   int
	match            bool
}

func e17Run(disks int) (e17Result, error) {
	const (
		fileSize = 1 << 20 // 1 MB
		chunkSz  = 64 << 10
		failDisk = 1
	)
	met := metrics.NewSet()
	cluster, err := core.New(core.Config{
		Disks:    disks,
		Layout:   core.LayoutParity,
		Geometry: device.Geometry{FragmentsPerTrack: 32, Tracks: 128}, // 8 MB per disk
		Metrics:  met,
	})
	if err != nil {
		return e17Result{}, err
	}
	defer cluster.Close()
	arr := cluster.Parity()
	res := e17Result{overhead: arr.StorageOverhead(), chunks: fileSize / chunkSz}

	rng := rand.New(rand.NewSource(int64(17*100 + disks)))
	ref := make([]byte, fileSize)
	rng.Read(ref)
	id, err := cluster.Files.Create(fit.Attributes{})
	if err != nil {
		return e17Result{}, err
	}
	for off := 0; off < fileSize; off += chunkSz {
		if _, err := cluster.Files.WriteAt(id, int64(off), ref[off:off+chunkSz]); err != nil {
			return e17Result{}, err
		}
	}
	if err := cluster.Files.Flush(); err != nil {
		return e17Result{}, err
	}

	readAll := func() (int, error) {
		ok := 0
		for off := 0; off < fileSize; off += chunkSz {
			got, err := cluster.Files.ReadAt(id, int64(off), chunkSz)
			if err != nil {
				return ok, err
			}
			if bytes.Equal(got, ref[off:off+chunkSz]) {
				ok++
			}
		}
		return ok, nil
	}

	// Healthy cold read.
	cluster.InvalidateCaches()
	start := cluster.Makespan()
	if ok, err := readAll(); err != nil || ok != res.chunks {
		return e17Result{}, fmt.Errorf("healthy read: %d/%d ok, err %v", ok, res.chunks, err)
	}
	res.healthyRead = cluster.Makespan() - start

	// One disk down: reads must all reconstruct correctly, writes continue.
	cluster.Device(failDisk).Fail()
	cluster.InvalidateCaches()
	if err := arr.MarkFailed(failDisk); err != nil {
		return e17Result{}, err
	}
	start = cluster.Makespan()
	res.readsOK, err = readAll()
	if err != nil {
		return e17Result{}, fmt.Errorf("degraded read: %w", err)
	}
	res.degradedRead = cluster.Makespan() - start
	res.writes = 8
	for i := 0; i < res.writes; i++ {
		off := (i * 97 * 1024) % (fileSize - chunkSz)
		update := make([]byte, 4096)
		rng.Read(update)
		if _, err := cluster.Files.WriteAt(id, int64(off), update); err == nil {
			copy(ref[off:], update)
			res.writesOK++
		}
	}
	if err := cluster.Files.Flush(); err != nil {
		return e17Result{}, err
	}

	// Replace the disk: the drive comes back, but its striped region is
	// deliberately scribbled over so the post-rebuild comparison proves the
	// bytes came from XOR reconstruction, not from surviving media.
	cluster.Device(failDisk).Repair()
	srv := cluster.DiskServer(failDisk)
	junk := make([]byte, 64*diskservice.FragmentSize)
	rng.Read(junk)
	lo := srv.MetadataFragments()
	hi := lo + arr.Stripes() // a stripe unit is one fragment
	for addr := lo; addr < hi; addr += 64 {
		n := 64
		if addr+n > hi {
			n = hi - addr
		}
		if err := srv.Put(context.Background(), addr, junk[:n*diskservice.FragmentSize], diskservice.PutOptions{}); err != nil {
			return e17Result{}, fmt.Errorf("scribbling replacement: %w", err)
		}
	}
	if err := arr.ReplaceDisk(failDisk, srv); err != nil {
		return e17Result{}, err
	}
	start = cluster.Makespan()
	if err := arr.Rebuild(); err != nil {
		return e17Result{}, fmt.Errorf("rebuild: %w", err)
	}
	res.rebuild = cluster.Makespan() - start
	res.rebuiltStripes = int(met.Get(metrics.ParityRebuildStripes))

	cluster.InvalidateCaches()
	ok, err := readAll()
	if err != nil {
		return e17Result{}, fmt.Errorf("post-rebuild read: %w", err)
	}
	bad, err := arr.CheckParity()
	if err != nil {
		return e17Result{}, fmt.Errorf("post-rebuild parity check: %w", err)
	}
	res.match = ok == res.chunks && len(bad) == 0 && !arr.Degraded()
	return res, nil
}
