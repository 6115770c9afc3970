package parity

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/device"
	"repro/internal/diskservice"
	"repro/internal/obs"
)

// Put writes len(data)/FragmentSize contiguous data fragments starting at
// addr, keeping every touched stripe's parity invariant. Each stripe, in
// order and under its stripe lock, takes one of the two write rules (see
// the package doc): a reconstruct-write when it is covered whole or covers
// its lost unit, a read-modify-write otherwise.
//
// StableOnly writes (shadow pages, deferred FIT mirrors) pass through to the
// member disks' stable stores untouched — stable storage is its own
// mirrored redundancy and takes no part in the parity scheme.
//
// A disk failing in the middle of a partial-stripe write can leave that
// stripe's parity stale (the classic RAID-5 "write hole"; closing it needs
// a write-intent journal, out of scope here). Failures between writes —
// the fault-injection scenarios the experiments exercise — always leave
// every stripe consistent. The write is bracketed like Get.
func (a *Array) Put(ctx context.Context, addr int, data []byte, opts diskservice.PutOptions) error {
	_, op := a.obsRec.StartOp(ctx, obs.LayerParity, "put")
	op.AddBytes(len(data))
	err := a.put(addr, data, opts)
	op.End(err)
	return err
}

func (a *Array) put(addr int, data []byte, opts diskservice.PutOptions) error {
	if len(data) == 0 || len(data)%FragmentSize != 0 {
		return fmt.Errorf("parity: put of %d bytes is not whole fragments", len(data))
	}
	n := len(data) / FragmentSize
	if err := a.checkSpan(addr, n); err != nil {
		return err
	}
	if err := a.alive(); err != nil {
		return err
	}
	spans := a.planSpans(addr, n)
	if opts.Stability == diskservice.StableOnly {
		return a.putStable(spans, data, opts)
	}
	// planSpans emits the spans in stripe order; write them a stripe at a
	// time.
	for len(spans) > 0 {
		g := 1
		for g < len(spans) && spans[g].stripe == spans[0].stripe {
			g++
		}
		if err := a.writeStripe(spans[:g], data, opts); err != nil {
			return err
		}
		spans = spans[g:]
	}
	return nil
}

// putStable forwards the spans to the member disks' stable stores at their
// physical addresses. No parity, no stripe locks: stable storage mirrors
// each disk one-to-one and survives its main device independently.
func (a *Array) putStable(spans []vspan, data []byte, opts diskservice.PutOptions) error {
	disks, _, _, _ := a.snapshot()
	return a.perDisk(spans, func(d int, p pspan) error {
		return disks[d].Put(context.Background(), p.phys, data[p.bufOff:p.bufOff+p.frags*FragmentSize], opts)
	})
}

// writeStripe writes one stripe's spans under the stripe lock, retrying once
// with the updated failure state if a disk fails mid-write.
func (a *Array) writeStripe(spans []vspan, data []byte, opts diskservice.PutOptions) error {
	lk := a.stripeLock(spans[0].stripe)
	lk.Lock()
	defer lk.Unlock()
	err := a.writeStripeLocked(spans, data, opts)
	if err != nil && errors.Is(err, device.ErrFailed) && !errors.Is(err, ErrTooManyFailures) {
		// First failure, absorbed by noteFailure: redo around the lost disk.
		err = a.writeStripeLocked(spans, data, opts)
	}
	return err
}

// writeStripeLocked picks the stripe's write rule, reads what it needs and
// XORs it into the new data's parity, then writes the data and parity units
// in one fan-out. Both rules fold the same way: reconstruct-write reads the
// untouched data units, read-modify-write the touched units' old data and
// the old parity.
func (a *Array) writeStripeLocked(spans []vspan, data []byte, opts diskservice.PutOptions) error {
	s := spans[0].stripe
	disks, lost, rebuilding, w := a.snapshot()
	if rebuilding && s < w {
		// A rebuilt stripe (below the watermark) is healthy: its unit on the
		// replacement disk is in sync and must be written like any other.
		lost = -1
	}
	p := a.parityDisk(s)
	touched := make([]bool, a.n)
	par := make([]byte, FragmentSize)
	for _, sp := range spans {
		touched[a.dataDisk(s, sp.j)] = true
		xorInto(par, data[sp.bufOff:sp.bufOff+FragmentSize])
	}
	rmw := len(spans) < a.k && lost != p && (lost < 0 || !touched[lost])
	var reads []int
	for d := 0; d < a.n; d++ {
		switch {
		case rmw && (touched[d] || d == p):
			reads = append(reads, d) // old data and old parity
		case !rmw && lost != p && !touched[d] && d != p:
			reads = append(reads, d) // an untouched data unit
		}
	}
	if err := a.xorUnits(disks, s, reads, par); err != nil {
		return err
	}

	var tasks []func() error
	for _, sp := range spans {
		d := a.dataDisk(s, sp.j)
		srv, phys, chunk := disks[d], a.physAddr(d, s), data[sp.bufOff:sp.bufOff+FragmentSize]
		if d != lost {
			tasks = append(tasks, func() error { return a.putNoted(srv, d, phys, chunk, opts) })
		} else if echo, ok := stableEcho(opts); ok {
			// The lost unit's main copy cannot be written, but its stable
			// store is alive and must stay current for crash recovery.
			tasks = append(tasks, func() error { return srv.Put(context.Background(), phys, chunk, echo) })
		}
	}
	if p != lost {
		tasks = append(tasks, func() error {
			return a.putNoted(disks[p], p, a.physAddr(p, s), par, diskservice.PutOptions{})
		})
	}
	if err := a.fanout(tasks); err != nil {
		return err
	}
	switch {
	case rmw:
		a.met.rmw.Inc()
	case lost < 0:
		a.met.fullStripe.Inc()
	}
	if lost >= 0 {
		a.met.degradedWrites.Inc()
	}
	return nil
}

// putNoted wraps a member-disk write, recording an observed failure so the
// array flips to degraded mode; a second distinct failure is fatal.
func (a *Array) putNoted(srv *diskservice.Server, d, addr int, data []byte, opts diskservice.PutOptions) error {
	err := srv.Put(context.Background(), addr, data, opts)
	if err != nil && errors.Is(err, device.ErrFailed) && !a.noteFailure(d) {
		return fmt.Errorf("%w: disk %d: %v", ErrDoubleFailure, d, err)
	}
	return err
}

// stableEcho derives the pass-through options for the stable copy of a unit
// whose main write cannot happen (its disk is lost).
func stableEcho(opts diskservice.PutOptions) (diskservice.PutOptions, bool) {
	if opts.Stability == diskservice.MainAndStable {
		return diskservice.PutOptions{Stability: diskservice.StableOnly, WaitStable: opts.WaitStable}, true
	}
	return diskservice.PutOptions{}, false
}
