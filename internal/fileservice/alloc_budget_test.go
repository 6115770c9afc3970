package fileservice

import (
	"runtime"
	"testing"

	"repro/internal/fit"
	"repro/internal/metrics"
)

// TestColdMissAllocBudget pins what a cold single-block miss allocates: 4 KiB
// reads or writes striding through a file 32 times the block cache — 97
// blocks at a step, so every access misses, installs its block over an
// eviction and continues no stream (a stream fetches a whole run). The device
// reads straight into the buffer the cache keeps — one a previous eviction
// freed — so a read allocates the bytes it returns and a write nothing: no
// transfer buffer, no copy of the block, no entry. Ceilings are the measured
// values plus 15 %; before the miss filled the cache's own buffer a read
// allocated 12 504 B in 7 objects and a write 8 304 B in 3.
func TestColdMissAllocBudget(t *testing.T) {
	const (
		cacheBlocks = 16
		fileBlocks  = 32 * cacheBlocks
		ops         = 4000
		unit        = BlockSize / 2
	)
	r := newRig(t, 1, func(c *Config) { c.CacheBlocks = cacheBlocks })
	id, err := r.svc.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.svc.WriteAt(id, 0, make([]byte, fileBlocks*BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Flush(); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, unit)
	for _, c := range []struct {
		name          string
		op            func(off int64) error
		bytes, allocs float64 // ceilings per operation
	}{
		// Measured: 4 096 B in 1 object, the 4 KiB the read returns.
		{"read", func(off int64) error {
			_, err := r.svc.ReadAt(id, off, unit)
			return err
		}, 4710, 1.15},
		// Measured: 0 B in 0 objects. The ceiling is what the read's 15 %
		// allows, for a stray allocation of the runtime's.
		{"write", func(off int64) error {
			_, err := r.svc.WriteAt(id, off, data)
			return err
		}, 614, 0.15},
	} {
		blk := 0
		run := func(n int) {
			for i := 0; i < n; i++ {
				blk = 1 + (blk+97)%(fileBlocks-1) // never block 0, never next to a recent one
				if err := c.op(int64(blk)*BlockSize + int64(i%2)*unit); err != nil {
					t.Fatal(err)
				}
			}
		}
		run(ops / 4) // warm: the cache is full and its spare buffer in place
		misses, streams := r.met.Get(metrics.ServerCacheMiss), r.met.Get(metrics.FetchStream)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(ops)
		runtime.ReadMemStats(&after)
		misses = r.met.Get(metrics.ServerCacheMiss) - misses
		if streams != r.met.Get(metrics.FetchStream) {
			t.Fatalf("%s: the strided accesses fetched a stream's run", c.name)
		}
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / ops
		allocs := float64(after.Mallocs-before.Mallocs) / ops
		t.Logf("%s: %.0f B and %.2f objects per op, %.1f %% misses", c.name, bytes, allocs, 100*float64(misses)/ops)
		if misses != ops {
			t.Fatalf("%s: %d misses in %d ops; the budget is for cold misses", c.name, misses, ops)
		}
		if bytes > c.bytes || allocs > c.allocs {
			t.Errorf("%s: %.0f B in %.2f objects per cold miss, ceiling %.0f B in %.2f: a miss is allocating a block-sized buffer, an entry or its plan",
				c.name, bytes, allocs, c.bytes, c.allocs)
		}
	}
}
