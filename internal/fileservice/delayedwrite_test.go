package fileservice

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/fit"
)

// stamp fills a unit with its offset and generation, so a read can tell
// which write it returns.
func stamp(buf []byte, off int64, gen uint64) {
	for i := 0; i+16 <= len(buf); i += 16 {
		binary.LittleEndian.PutUint64(buf[i:], uint64(off))
		binary.LittleEndian.PutUint64(buf[i+8:], gen)
	}
}

func stamped(buf []byte, off int64, gen uint64) bool {
	for i := 0; i+16 <= len(buf); i += 16 {
		if binary.LittleEndian.Uint64(buf[i:]) != uint64(off) || binary.LittleEndian.Uint64(buf[i+8:]) != gen {
			return false
		}
	}
	return true
}

// delayedWriteChurn drives random unit-sized writes and reads of readUnits
// consecutive units on one delayed-write file four times the size of the
// block cache, and returns how many reads held a unit older than its last
// acknowledged write.
func delayedWriteChurn(t *testing.T, parityLayout bool, readUnits int) (stale, reads int) {
	t.Helper()
	const (
		cacheBlocks = 16
		unit        = BlockSize / 2
		size        = 4 * cacheBlocks * BlockSize
	)
	r := newLayoutRig(t, parityLayout, func(c *Config) { c.CacheBlocks = cacheBlocks })
	id, err := r.svc.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	for off := 0; off < size; off += unit {
		stamp(buf[off:off+unit], int64(off), 0)
	}
	if _, err := r.svc.WriteAt(id, 0, buf); err != nil {
		t.Fatal(err)
	}
	gens := make([]uint64, size/unit)
	rng := rand.New(rand.NewSource(1))
	w := make([]byte, unit)
	for i := 0; i < 8000; i++ {
		u := rng.Intn(len(gens) - readUnits + 1)
		off := int64(u) * unit
		if rng.Float64() < 0.7 {
			data, err := r.svc.ReadAt(id, off, readUnits*unit)
			if err != nil {
				t.Fatal(err)
			}
			reads++
			for k := 0; k < readUnits; k++ {
				if !stamped(data[k*unit:(k+1)*unit], off+int64(k*unit), gens[u+k]) {
					stale++
					break
				}
			}
			continue
		}
		gens[u]++
		stamp(w, off, gens[u])
		if _, err := r.svc.WriteAt(id, off, w); err != nil {
			t.Fatal(err)
		}
	}
	return stale, reads
}

// TestDelayedWriteNeighbourMiss: a miss on one block fetches its whole
// contiguous run and installs every block of it in the cache; a neighbour
// that is cached dirty must keep its data, not take the disk's older image.
// (The bench module carries the same scenario on the full facility.)
func TestDelayedWriteNeighbourMiss(t *testing.T) {
	for _, layout := range layouts {
		t.Run(layout.name, func(t *testing.T) {
			if stale, reads := delayedWriteChurn(t, layout.parity, 1); stale > 0 {
				t.Fatalf("%d of %d reads returned a block older than the last acknowledged write", stale, reads)
			}
		})
	}
}

// TestDelayedWriteReadAcrossDirtyNeighbour: a read spanning a missing block
// and its dirty cached neighbour must serve the neighbour from the cache,
// not from the run fetched for the miss.
func TestDelayedWriteReadAcrossDirtyNeighbour(t *testing.T) {
	for _, layout := range layouts {
		t.Run(layout.name, func(t *testing.T) {
			if stale, reads := delayedWriteChurn(t, layout.parity, 6); stale > 0 {
				t.Fatalf("%d of %d multi-block reads returned a block older than the last acknowledged write", stale, reads)
			}
		})
	}
}
