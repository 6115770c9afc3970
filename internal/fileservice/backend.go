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
	// ID identifies the backend within the facility.
	ID() int
	// Capacity returns the usable size in fragments.
	Capacity() int
	// FreeFragments returns the number of free fragments.
	FreeFragments() int
	// MetadataFragments returns the first allocatable fragment address.
	MetadataFragments() int

	// AllocateFragments claims n contiguous fragments.
	AllocateFragments(n int) (int, error)
	// AllocateFragmentsNear is AllocateFragments preferring addresses close
	// to hint.
	AllocateFragmentsNear(hint, n int) (int, error)
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

	// Get is the paper's get-block (§4).
	Get(addr, n int, opts diskservice.GetOptions) ([]byte, error)
	// Put is the paper's put-block (§4). data is lent for the length of the
	// call — it is a cache buffer on a writeback, a pooled one on a FIT write
	// — so an implementation copies whatever it keeps.
	Put(addr int, data []byte, opts diskservice.PutOptions) error
	// Flush is the paper's flush-block: all buffered state becomes durable.
	Flush() error
	// InvalidateCache empties read caches (experiments force cold reads).
	InvalidateCache()
}

// BackendCtx is the optional trace-context form of Backend's data path.
// The built-in implementations provide it; the file service reaches it by
// type assertion, so Backend itself — and any external implementation or
// test double — is unaffected by the tracing layer.
type BackendCtx interface {
	// GetCtx is Get carrying a trace context.
	GetCtx(ctx context.Context, addr, n int, opts diskservice.GetOptions) ([]byte, error)
	// PutCtx is Put carrying a trace context.
	PutCtx(ctx context.Context, addr int, data []byte, opts diskservice.PutOptions) error
}

var (
	_ Backend    = (*diskservice.Server)(nil)
	_ BackendCtx = (*diskservice.Server)(nil)
)

// backendGet routes a get-block through the ctx-threaded path when the
// backend has one, so disk and device spans join the caller's trace.
func (s *Service) backendGet(ctx context.Context, disk, addr, n int, opts diskservice.GetOptions) ([]byte, error) {
	if bc := s.disksCtx[disk]; bc != nil {
		return bc.GetCtx(ctx, addr, n, opts)
	}
	return s.disks[disk].Get(addr, n, opts)
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
