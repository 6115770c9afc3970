package fileservice

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/fit"
	"repro/internal/metrics"
)

// streamRig returns a rig holding one flushed, physically contiguous file of
// the given number of blocks, with the block cache and the track cache cold
// and the file index table still cached — so every disk reference counted
// afterwards is a data reference.
func streamRig(t *testing.T, blocks int) (*rig, FileID, []byte) {
	t.Helper()
	r := newRigGeom(t, device.Geometry{FragmentsPerTrack: 32, Tracks: 512}, 1) // 32 MB
	id, err := r.svc.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	data := payload(blocks*BlockSize, int64(blocks))
	if _, err := r.svc.WriteAt(id, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := r.svc.Flush(); err != nil {
		t.Fatal(err)
	}
	if extents, _, err := r.svc.ContiguityProfile(id); err != nil || extents != 1 {
		t.Fatalf("file has %d extents (%v), want 1", extents, err)
	}
	r.svc.InvalidateCaches()
	return r, id, data
}

// ioCount is the data-path work a rig has done so far.
type ioCount struct {
	refs, bytesRead   int64 // device operations and bytes read from the platter
	misses, installed int64 // block-cache misses and blocks the fetches cached
	stream, demand    int64 // fetches by class
}

func (r *rig) io() ioCount {
	return ioCount{
		refs:      r.met.Get(metrics.DiskReferences),
		bytesRead: r.met.Get(metrics.DiskBytesRead),
		misses:    r.met.Get(metrics.ServerCacheMiss),
		installed: r.met.Get(metrics.FetchStreamBlocks) + r.met.Get(metrics.FetchDemandBlocks),
		stream:    r.met.Get(metrics.FetchStream),
		demand:    r.met.Get(metrics.FetchDemand),
	}
}

func (c ioCount) since(b ioCount) ioCount {
	return ioCount{c.refs - b.refs, c.bytesRead - b.bytesRead, c.misses - b.misses,
		c.installed - b.installed, c.stream - b.stream, c.demand - b.demand}
}

// readCheck reads n bytes at off and compares them with the file's contents.
func readCheck(t *testing.T, r *rig, id FileID, want []byte, off, n int) {
	t.Helper()
	got, err := r.svc.ReadAt(id, int64(off), n)
	if err != nil || !bytes.Equal(got, want[off:off+n]) {
		t.Fatalf("read of %d bytes at %d: mismatch or error %v", n, off, err)
	}
}

// TestSequentialReadIsOneReference: a reader that walks a contiguous 64-block
// file from a cold cache, a block or half a block at a time, costs one data
// reference — the first miss fetches the run and every later request hits
// (§5, experiment E2).
func TestSequentialReadIsOneReference(t *testing.T) {
	for _, unit := range []int{BlockSize, BlockSize / 2} {
		t.Run(fmt.Sprintf("unit=%d", unit), func(t *testing.T) {
			r, id, data := streamRig(t, 64)
			before := r.io()
			for off := 0; off < len(data); off += unit {
				readCheck(t, r, id, data, off, unit)
			}
			if d := r.io().since(before); d.refs != 1 || d.demand != 0 {
				t.Fatalf("sequential read took %d references (%d demand fetches), want 1 and 0", d.refs, d.demand)
			}
		})
	}
}

// TestInterleavedSequentialReaders: two readers walking different halves of
// one 128-block file stay sequential when their requests interleave — the
// file keeps a cursor per stream — so together they cost what each costs
// alone.
func TestInterleavedSequentialReaders(t *testing.T) {
	const half = 64
	refs := func(starts ...int) int64 {
		r, id, data := streamRig(t, 2*half)
		before := r.io()
		for b := 0; b < half; b++ {
			for _, start := range starts {
				readCheck(t, r, id, data, (start+b)*BlockSize, BlockSize)
			}
		}
		return r.io().since(before).refs
	}
	// Alone, the reader of the second half pays a demand fetch for its first
	// block before its second request shows the stream.
	alone, together := refs(0)+refs(half), refs(0, half)
	if alone != 3 || together != alone {
		t.Fatalf("interleaved readers took %d references, alone %d: want 3 and 3", together, alone)
	}
}

// scatter returns the i-th block of a walk over a file of the given size
// that never touches block 0 and strides far past the blocks just before
// it — accesses no stream rule may class as sequential.
func scatter(i, blocks int) int { return 1 + (i*397)%(blocks-1) }

// TestRandomReadsMoveOneBlockPerMiss: random 4 KB reads on a 16 MB file move
// and install one block per miss, not the run the block starts.
func TestRandomReadsMoveOneBlockPerMiss(t *testing.T) {
	const blocks = 2048
	r, id, data := streamRig(t, blocks)
	rng := rand.New(rand.NewSource(1))
	before := r.io()
	for i := 0; i < 200; i++ {
		off := scatter(i, blocks)*BlockSize + rng.Intn(2)*(BlockSize/2)
		readCheck(t, r, id, data, off, BlockSize/2)
	}
	d := r.io().since(before)
	if d.misses == 0 || d.stream != 0 {
		t.Fatalf("%d misses, %d stream fetches: want misses and no stream fetch", d.misses, d.stream)
	}
	if d.bytesRead > d.misses*BlockSize || d.installed > d.misses || d.refs > d.misses {
		t.Fatalf("%d misses read %d bytes in %d references and installed %d blocks: want at most one block each",
			d.misses, d.bytesRead, d.refs, d.installed)
	}
}

// TestRandomPartialWriteFetchesOneBlock: the read-modify-write of a 4 KB
// write into the middle of a large file fetches the block it patches.
func TestRandomPartialWriteFetchesOneBlock(t *testing.T) {
	r, id, data := streamRig(t, 2048)
	const off = 777*BlockSize + BlockSize/2
	patch := payload(BlockSize/2, 9)
	before := r.io()
	if _, err := r.svc.WriteAt(id, off, patch); err != nil {
		t.Fatal(err)
	}
	if d := r.io().since(before); d.refs != 1 || d.bytesRead != BlockSize || d.installed != 1 {
		t.Fatalf("partial write took %d references, read %d bytes, installed %d blocks: want 1, %d, 1",
			d.refs, d.bytesRead, d.installed, BlockSize)
	}
	copy(data[off:], patch)
	readCheck(t, r, id, data, 777*BlockSize, BlockSize)
}

// TestLargeRandomReadThenStream: a 64 KB read at a random offset is one
// reference for exactly its 8 blocks; the read that follows it sequentially
// continues a stream and fetches the whole run.
func TestLargeRandomReadThenStream(t *testing.T) {
	r, id, data := streamRig(t, 2048)
	const first = 1000
	before := r.io()
	readCheck(t, r, id, data, first*BlockSize, 8*BlockSize)
	if d := r.io().since(before); d.refs != 1 || d.bytesRead != 8*BlockSize || d.demand != 1 {
		t.Fatalf("random 64 KB read: %d references, %d bytes, %d demand fetches: want 1, %d, 1",
			d.refs, d.bytesRead, d.demand, 8*BlockSize)
	}
	before = r.io()
	readCheck(t, r, id, data, (first+8)*BlockSize, 8*BlockSize)
	if d := r.io().since(before); d.refs != 1 || d.bytesRead != MaxSingleFetchBlocks*BlockSize || d.stream != 1 {
		t.Fatalf("following read: %d references, %d bytes, %d stream fetches: want 1, %d, 1",
			d.refs, d.bytesRead, d.stream, MaxSingleFetchBlocks*BlockSize)
	}
	// The run is cached: the stream goes on without a reference.
	before = r.io()
	readCheck(t, r, id, data, (first+16)*BlockSize, 8*BlockSize)
	if d := r.io().since(before); d.refs != 0 {
		t.Fatalf("read inside the fetched run took %d references, want 0", d.refs)
	}
}
