package fileservice

import (
	"context"

	"repro/internal/diskservice"
)

// Backend is the disk-shaped storage a file service runs on. It is the
// surface the service (and the transaction service, through DiskServer)
// actually uses of a disk server: allocation over a flat fragment space,
// get-block/put-block, and the flush/rebuild hooks.
//
// Two implementations exist: *diskservice.Server — one physical disk with
// its stable mirror (§4) — and *parity.Array, which presents K+1 disk
// servers as one larger, single-failure-tolerant fragment space with
// rotating XOR parity. The file service is layout-agnostic: plain striping
// places extents across several Backends, the parity layout places them on
// one Backend that is internally striped.
type Backend interface {
	// Capacity returns the usable size in fragments.
	Capacity() int
	// FreeFragments returns the number of free fragments.
	FreeFragments() int
	// MetadataFragments returns the first allocatable fragment address.
	MetadataFragments() int

	// AllocateFragments claims n contiguous fragments.
	AllocateFragments(n int) (int, error)
	// AllocateBlocks claims n contiguous blocks (4n fragments).
	AllocateBlocks(n int) (int, error)
	// AllocateBlocksNear is AllocateBlocks with a placement hint.
	AllocateBlocksNear(hint, n int) (int, error)
	// AllocateAt claims the exact span [addr, addr+n).
	AllocateAt(addr, n int) error
	// Free returns n fragments starting at addr to the free pool.
	Free(addr, n int) error
	// ResetBitmap discards all allocations except the metadata region (the
	// mount-time rebuild resets, then re-marks from the FITs).
	ResetBitmap() error

	// GetInto is the paper's get-block (§4): n contiguous fragments from
	// addr into the first n*FragmentSize bytes of dst, the caller's buffer —
	// on a block-cache miss, the buffer the cache will keep. It is the one
	// read a backend has; Get is its allocating form. The backend's disk and
	// device spans nest under ctx's.
	GetInto(ctx context.Context, addr, n int, dst []byte, opts diskservice.GetOptions) error
	// Put is the paper's put-block (§4). data is lent for the length of the
	// call — it is a cache buffer on a writeback, a pooled one on a FIT write
	// — so an implementation copies whatever it keeps.
	Put(ctx context.Context, addr int, data []byte, opts diskservice.PutOptions) error
	// Flush is the paper's flush-block: all buffered state becomes durable.
	Flush() error
	// InvalidateCache empties read caches (experiments force cold reads).
	InvalidateCache()
}

var _ Backend = (*diskservice.Server)(nil)

// Get is b.GetInto a fresh buffer of n*FragmentSize bytes.
func Get(ctx context.Context, b Backend, addr, n int, opts diskservice.GetOptions) ([]byte, error) {
	buf := make([]byte, min(max(n, 0), b.Capacity())*FragmentSize)
	return buf, b.GetInto(ctx, addr, n, buf, opts)
}

// Servers adapts disk servers to the Backend slice Config.Disks takes —
// the plain layout, one Backend per physical disk.
func Servers(srvs ...*diskservice.Server) []Backend {
	out := make([]Backend, len(srvs))
	for i, s := range srvs {
		out[i] = s
	}
	return out
}
