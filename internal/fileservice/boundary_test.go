package fileservice

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fit"
)

// boundaryFile pairs a file with the plain byte slice it must read like.
type boundaryFile struct {
	t     *testing.T
	svc   *Service
	id    FileID
	model []byte
}

func (f *boundaryFile) write(off int, data []byte) {
	f.t.Helper()
	if n, err := f.svc.WriteAt(f.id, int64(off), data); err != nil || n != len(data) {
		f.t.Fatalf("WriteAt(%d, %d bytes) = %d, %v", off, len(data), n, err)
	}
	if end := off + len(data); end > len(f.model) {
		f.model = append(f.model, make([]byte, end-len(f.model))...)
	}
	copy(f.model[off:], data)
}

func (f *boundaryFile) read(off, n int) {
	f.t.Helper()
	got, err := f.svc.ReadAt(f.id, int64(off), n)
	if err != nil {
		f.t.Fatalf("ReadAt(%d, %d): %v", off, n, err)
	}
	var want []byte
	if off < len(f.model) {
		want = f.model[off:min(off+n, len(f.model))]
	}
	if !bytes.Equal(got, want) {
		f.t.Fatalf("ReadAt(%d, %d) returned %d bytes, first difference from the model at byte %d",
			off, n, len(got), off+firstDiff(got, want))
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// sweep reads the ranges a block-edge bug would show in: every block edge
// ± 1 at lengths that stay inside a block, cross one edge and cross two, the
// tail across end of file, and the whole file.
func (f *boundaryFile) sweep() {
	f.t.Helper()
	for edge := BlockSize; edge <= len(f.model); edge += BlockSize {
		for _, off := range []int{edge - 1, edge, edge + 1} {
			for _, n := range []int{1, 2, BlockSize - 1, BlockSize, BlockSize + 2, 2*BlockSize + 2} {
				f.read(off, n)
			}
		}
	}
	f.read(len(f.model)-1, 5)
	f.read(len(f.model), 5)
	f.read(0, len(f.model)+1)
}

// TestDataPathBoundaries aims writes and reads at the places the data path
// splits a request — block edge ± 1, two and three blocks spanned, end of file
// moved mid-block, a hole — on a file larger than the block cache, so every
// combination of hit, miss, in-place write and eviction writeback occurs, and
// compares every byte with an in-memory model: before any flush, after one,
// and on a service mounted over the disks of the one that was abandoned.
// It runs under both modification policies, on a single disk and on a parity
// array; a write-through file must also survive the crash without the flush.
func TestDataPathBoundaries(t *testing.T) {
	for _, layout := range layouts {
		for _, service := range []fit.ServiceType{fit.ServiceBasic, fit.ServiceTransaction} {
			for _, flush := range []bool{true, false} {
				if !flush && service == fit.ServiceBasic {
					continue // delayed writes are only promised to a flush
				}
				name := fmt.Sprintf("%v/flush=%v", service, flush)
				if layout.parity {
					name = "parity/" + name
				}
				t.Run(name, func(t *testing.T) { dataPathBoundaries(t, layout.parity, service, flush) })
			}
		}
	}
}

func dataPathBoundaries(t *testing.T, parityLayout bool, service fit.ServiceType, flush bool) {
	r := newLayoutRig(t, parityLayout, func(c *Config) { c.CacheBlocks = 2 })
	id, err := r.svc.Create(fit.Attributes{Service: service})
	if err != nil {
		t.Fatal(err)
	}
	f := &boundaryFile{t: t, svc: r.svc, id: id}
	f.write(0, payload(5*BlockSize, 1))
	f.sweep()

	seed := int64(2)
	for edge := BlockSize; edge <= 4*BlockSize; edge += BlockSize {
		for _, off := range []int{edge - 1, edge, edge + 1} {
			for _, n := range []int{1, BlockSize - 1, BlockSize, BlockSize + 2, 2*BlockSize + 2} {
				if off+n > len(f.model) {
					continue // extending writes come below, one at a time
				}
				f.write(off, payload(n, seed))
				seed++
				f.read(off-1, n+2)
			}
		}
	}
	f.sweep()

	// End of file moves inside its block, then into the next one.
	f.write(len(f.model)-3, payload(10, seed))
	f.write(len(f.model), payload(BlockSize-20, seed+1))
	f.sweep()
	// A write past the end leaves a hole: the rest of the last
	// block, a whole untouched block, and the head of the block
	// written into must all read as zeros.
	f.write(len(f.model)+2*BlockSize+5, payload(100, seed+2))
	f.sweep()
	// A partial write into the hole's untouched block.
	f.write(len(f.model)-BlockSize-200, payload(50, seed+3))
	f.sweep()

	if flush {
		if err := r.svc.Flush(); err != nil {
			t.Fatal(err)
		}
		f.sweep()
	}
	// Crash: the service, its block cache and FIT state are
	// abandoned, and a new one mounts over the same disks.
	f.svc, err = Mount(Config{Disks: r.backends, CacheBlocks: 2})
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	f.sweep()
	f.write(BlockSize-1, payload(2, seed+4))
	f.sweep()
}
