package parity

import (
	"context"

	"repro/internal/diskservice"
)

// getAlloc is GetInto a fresh buffer of n*FragmentSize bytes.
func (a *Array) getAlloc(ctx context.Context, addr, n int, opts diskservice.GetOptions) ([]byte, error) {
	buf := make([]byte, min(max(n, 0), a.Capacity())*FragmentSize)
	return buf, a.GetInto(ctx, addr, n, buf, opts)
}

// rebuildProgress returns how many stripes are in sync on the replacement
// and the total. With no rebuild in flight it reports (total, total) when
// healthy and (0, total) when degraded without a replacement.
func (a *Array) rebuildProgress() (done, total int) {
	_, failed, rebuilding, w := a.snapshot()
	switch {
	case rebuilding:
		return w, a.stripes
	case failed < 0:
		return a.stripes, a.stripes
	default:
		return 0, a.stripes
	}
}
