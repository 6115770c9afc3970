package parity

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/device"
	"repro/internal/diskservice"
	"repro/internal/fault"
)

// ErrNoReplacement reports a rebuild attempt with no replacement installed.
var ErrNoReplacement = errors.New("parity: degraded with no replacement disk installed")

// Fault points bracketing the per-stripe resync write. Dying before the Put
// leaves the stripe stale on the replacement; dying after it leaves the
// stripe synced but the watermark not advanced — either way a post-crash
// rebuild restarted from stripe zero converges, which is what the torture
// harness proves. Arm them with After to pick how far the rebuild gets.
var (
	PtRebuildBeforePut = fault.Register("parity.rebuild.before-put")
	PtRebuildAfterPut  = fault.Register("parity.rebuild.after-put")
)

// ReplaceDisk installs srv as the replacement for the failed disk i and
// arms the rebuild: the watermark drops to zero and every stripe is
// considered out of sync on the replacement until Rebuild (or RebuildStep)
// walks past it. Reattaching the original server after a device Repair is
// also accepted. The replacement's stable store starts empty, exactly as a
// physically swapped disk's would.
func (a *Array) ReplaceDisk(i int, srv *diskservice.Server) error {
	if i < 0 || i >= a.n {
		return ErrBadDisk
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.dead {
		return ErrDoubleFailure
	}
	if a.failed != i {
		return ErrNotFailed
	}
	// The striped region keeps the original disk's base address so the
	// stripe→address mapping never changes; the replacement must fit it.
	if srv.MetadataFragments() > a.base[i] {
		return fmt.Errorf("parity: replacement metadata region (%d) exceeds slot base %d",
			srv.MetadataFragments(), a.base[i])
	}
	if srv.Capacity() < a.base[i]+a.stripes {
		return fmt.Errorf("parity: replacement too small: %d < %d fragments",
			srv.Capacity(), a.base[i]+a.stripes)
	}
	if err := srv.ResetBitmap(); err != nil {
		return err
	}
	if err := srv.AllocateAt(a.base[i], a.stripes); err != nil {
		return fmt.Errorf("parity: claiming region on replacement: %w", err)
	}
	// Copy-on-write: snapshot() hands the disks slice out without the lock.
	nd := append([]*diskservice.Server(nil), a.disks...)
	nd[i] = srv
	a.disks = nd
	a.rebuilding = true
	a.watermark.Store(0)
	return nil
}

// Rebuild resyncs the replacement disk completely, stripe by stripe. Each
// stripe is reconstructed and written under its stripe lock, so reads and
// writes proceed concurrently throughout; stripes below the advancing
// watermark are already served healthily. Progress is visible in the
// parity.rebuild.stripes counter.
func (a *Array) Rebuild() error {
	for {
		done, err := a.RebuildStep(256)
		if err != nil || done {
			return err
		}
	}
}

// RebuildStep resyncs up to max stripes and returns done=true once the
// array is healthy again. The watermark persists across calls, so a rebuild
// is resumable in bounded slices.
func (a *Array) RebuildStep(max int) (bool, error) {
	a.rebuildMu.Lock()
	defer a.rebuildMu.Unlock()
	for i := 0; i < max; i++ {
		a.mu.Lock()
		f, rebuilding, healthy := a.failed, a.rebuilding, a.failed < 0
		dead := a.dead
		disks := a.disks
		a.mu.Unlock()
		if dead {
			return false, ErrDoubleFailure
		}
		if healthy {
			return true, nil
		}
		if !rebuilding {
			return false, ErrNoReplacement
		}
		s := int(a.watermark.Load())
		if s >= a.stripes {
			a.mu.Lock()
			a.failed = -1
			a.rebuilding = false
			a.mu.Unlock()
			return true, nil
		}
		if err := a.rebuildStripe(disks, f, s); err != nil {
			return false, err
		}
	}
	return false, nil
}

// rebuildStripe reconstructs stripe s's unit on the replacement disk f by
// XOR across the other n-1 disks, then advances the watermark — all under
// the stripe lock, so a concurrent write either lands before (and is folded
// into the reconstruction) or after (and sees the stripe as healthy).
func (a *Array) rebuildStripe(disks []*diskservice.Server, f, s int) error {
	lk := a.stripeLock(s)
	lk.Lock()
	defer lk.Unlock()

	unit := make([]byte, FragmentSize)
	if err := a.xorUnits(disks, s, a.others(f), unit); err != nil {
		return err
	}
	a.fault.Hit(PtRebuildBeforePut)
	if err := disks[f].Put(context.Background(), a.physAddr(f, s), unit, diskservice.PutOptions{}); err != nil {
		if errors.Is(err, device.ErrFailed) {
			// The replacement itself died: drop back to plain degraded mode.
			a.noteFailure(f)
		}
		return err
	}
	a.fault.Hit(PtRebuildAfterPut)
	a.watermark.Store(int64(s + 1))
	a.met.rebuildStripes.Inc()
	return nil
}

// CheckParity verifies the parity invariant — the XOR of every stripe's
// K+1 units is zero — reading each stripe under its stripe lock. It returns
// the stripes that violate the invariant. The array must be healthy.
func (a *Array) CheckParity() ([]int, error) {
	if err := a.alive(); err != nil {
		return nil, err
	}
	disks, failed, _, _ := a.snapshot()
	if failed >= 0 {
		return nil, ErrDegraded
	}
	var bad []int
	all := a.others(-1)
	acc := make([]byte, FragmentSize)
	for s := 0; s < a.stripes; s++ {
		clear(acc)
		lk := a.stripeLock(s)
		lk.Lock()
		err := a.xorUnits(disks, s, all, acc)
		lk.Unlock()
		if err != nil {
			return bad, err
		}
		for _, x := range acc {
			if x != 0 {
				bad = append(bad, s)
				break
			}
		}
	}
	return bad, nil
}
