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
// addr, keeping every touched stripe's parity invariant. A write covering a
// whole stripe computes parity from the new data alone and fans out K+1
// writes; a partial write does a read-modify-write parity update; in
// degraded mode the lost unit's content is folded into the parity so it
// stays reconstructable. Stripes are written concurrently, each under its
// stripe lock.
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

	// Group the spans by stripe (planSpans emits them in order).
	var groups [][]vspan
	for _, sp := range spans {
		if g := len(groups); g > 0 && groups[g-1][0].stripe == sp.stripe {
			groups[g-1] = append(groups[g-1], sp)
		} else {
			groups = append(groups, []vspan{sp})
		}
	}
	if len(groups) == 1 {
		return a.writeStripe(groups[0], data, opts)
	}
	tasks := make([]func() error, len(groups))
	for i, g := range groups {
		g := g
		tasks[i] = func() error { return a.writeStripe(g, data, opts) }
	}
	return a.fanout(tasks)
}

// putStable forwards the spans to the member disks' stable stores at their
// physical addresses. No parity, no stripe locks: stable storage mirrors
// each disk one-to-one and survives its main device independently.
func (a *Array) putStable(spans []vspan, data []byte, opts diskservice.PutOptions) error {
	disks, _, _, _ := a.snapshot()
	perDisk := make(map[int][]pspan)
	for _, sp := range spans {
		d := a.dataDisk(sp.stripe, sp.j)
		perDisk[d] = append(perDisk[d], pspan{
			phys: a.physAddr(d, sp.stripe, sp.off), frags: sp.frags, bufOff: sp.bufOff,
		})
	}
	var tasks []func() error
	for d, ps := range perDisk {
		srv, ps := disks[d], coalesce(ps)
		tasks = append(tasks, func() error {
			for _, p := range ps {
				if err := srv.Put(context.Background(), p.phys, data[p.bufOff:p.bufOff+p.frags*FragmentSize], opts); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return a.fanout(tasks)
}

// writeStripe writes one stripe's spans under the stripe lock, retrying once
// through the degraded path if a disk fails mid-write.
func (a *Array) writeStripe(spans []vspan, data []byte, opts diskservice.PutOptions) error {
	stripe := spans[0].stripe
	lk := a.stripeLock(stripe)
	lk.Lock()
	defer lk.Unlock()
	err := a.writeStripeLocked(stripe, spans, data, opts)
	if err != nil && errors.Is(err, device.ErrFailed) && !errors.Is(err, ErrTooManyFailures) {
		// First failure, absorbed by noteFailure: redo via the degraded path.
		err = a.writeStripeLocked(stripe, spans, data, opts)
	}
	return err
}

func (a *Array) writeStripeLocked(stripe int, spans []vspan, data []byte, opts diskservice.PutOptions) error {
	disks, failed, rebuilding, w := a.snapshot()
	// A rebuilt stripe (below the watermark) is healthy: its unit on the
	// replacement disk is in sync and must be written like any other.
	healthy := failed < 0 || (rebuilding && stripe < w)
	if len(spans) == a.k {
		return a.writeFullStripe(disks, healthy, failed, stripe, spans, data, opts)
	}
	if healthy {
		return a.writeRMW(disks, stripe, spans, data, opts)
	}
	return a.writeDegraded(disks, failed, stripe, spans, data, opts)
}

// getNoted / putNoted wrap member-disk I/O, recording an observed failure so
// the array flips to degraded mode; a second distinct failure is fatal.
func (a *Array) getNoted(srv *diskservice.Server, d, addr, frags int) ([]byte, error) {
	b, err := srv.Get(context.Background(), addr, frags, diskservice.GetOptions{})
	if err != nil && errors.Is(err, device.ErrFailed) && !a.noteFailure(d) {
		return nil, fmt.Errorf("%w: disk %d: %v", ErrDoubleFailure, d, err)
	}
	return b, err
}

func (a *Array) putNoted(srv *diskservice.Server, d, addr int, data []byte, opts diskservice.PutOptions) error {
	err := srv.Put(context.Background(), addr, data, opts)
	if err != nil && errors.Is(err, device.ErrFailed) && !a.noteFailure(d) {
		return fmt.Errorf("%w: disk %d: %v", ErrDoubleFailure, d, err)
	}
	return err
}

// stableEcho derives the pass-through options for the stable copy of a unit
// whose main write cannot happen (its disk is lost): the stable store is
// still alive and must stay current for crash recovery.
func stableEcho(opts diskservice.PutOptions) (diskservice.PutOptions, bool) {
	if opts.Stability == diskservice.MainAndStable {
		return diskservice.PutOptions{Stability: diskservice.StableOnly, WaitStable: opts.WaitStable}, true
	}
	return diskservice.PutOptions{}, false
}

// writeFullStripe handles a write covering every data unit of the stripe:
// parity is the XOR of the new units — no reads at all. In degraded mode the
// lost disk (data or parity) is simply skipped; the remaining K writes still
// fully determine the stripe.
func (a *Array) writeFullStripe(disks []*diskservice.Server, healthy bool, failed, stripe int, spans []vspan, data []byte, opts diskservice.PutOptions) error {
	par := make([]byte, FragmentSize)
	for _, sp := range spans {
		xorInto(par, data[sp.bufOff:sp.bufOff+sp.frags*FragmentSize])
	}
	skip := -1
	if !healthy {
		skip = failed
	}
	var tasks []func() error
	for _, sp := range spans {
		sp := sp
		d := a.dataDisk(stripe, sp.j)
		if d == skip {
			if echo, ok := stableEcho(opts); ok {
				srv := disks[d]
				phys := a.physAddr(d, stripe, sp.off)
				chunk := data[sp.bufOff : sp.bufOff+sp.frags*FragmentSize]
				tasks = append(tasks, func() error { return srv.Put(context.Background(), phys, chunk, echo) })
			}
			continue
		}
		srv := disks[d]
		phys := a.physAddr(d, stripe, sp.off)
		chunk := data[sp.bufOff : sp.bufOff+sp.frags*FragmentSize]
		tasks = append(tasks, func() error { return a.putNoted(srv, d, phys, chunk, opts) })
	}
	if p := a.parityDisk(stripe); p != skip {
		srv := disks[p]
		phys := a.physAddr(p, stripe, 0)
		tasks = append(tasks, func() error {
			return a.putNoted(srv, p, phys, par, diskservice.PutOptions{})
		})
	}
	if err := a.fanout(tasks); err != nil {
		return err
	}
	if skip >= 0 {
		a.met.degradedWrites.Inc()
	} else {
		a.met.fullStripe.Inc()
	}
	return nil
}

// envelope returns the union [lo, hi) of the spans' fragment positions
// within their stripe units.
func envelope(spans []vspan) (lo, hi int) {
	lo, hi = spans[0].off, spans[0].off+spans[0].frags
	for _, sp := range spans[1:] {
		if sp.off < lo {
			lo = sp.off
		}
		if e := sp.off + sp.frags; e > hi {
			hi = e
		}
	}
	return lo, hi
}

// writeRMW handles a partial-stripe write on a healthy stripe with the
// classic small-write sequence: read old data and old parity, fold
// oldParity XOR oldData XOR newData, write new data and new parity — two
// fan-out phases instead of the full-stripe path's one.
func (a *Array) writeRMW(disks []*diskservice.Server, stripe int, spans []vspan, data []byte, opts diskservice.PutOptions) error {
	p := a.parityDisk(stripe)
	lo, hi := envelope(spans)

	oldData := make([][]byte, len(spans))
	var oldParity []byte
	var tasks []func() error
	for i, sp := range spans {
		i, sp := i, sp
		d := a.dataDisk(stripe, sp.j)
		srv := disks[d]
		phys := a.physAddr(d, stripe, sp.off)
		tasks = append(tasks, func() error {
			b, err := a.getNoted(srv, d, phys, sp.frags)
			oldData[i] = b
			return err
		})
	}
	tasks = append(tasks, func() error {
		b, err := a.getNoted(disks[p], p, a.physAddr(p, stripe, lo), hi-lo)
		oldParity = b
		return err
	})
	if err := a.fanout(tasks); err != nil {
		return err
	}

	newParity := oldParity // updated in place
	for i, sp := range spans {
		seg := newParity[(sp.off-lo)*FragmentSize : (sp.off-lo+sp.frags)*FragmentSize]
		xorInto(seg, oldData[i])
		xorInto(seg, data[sp.bufOff:sp.bufOff+sp.frags*FragmentSize])
	}

	tasks = tasks[:0]
	for _, sp := range spans {
		sp := sp
		d := a.dataDisk(stripe, sp.j)
		srv := disks[d]
		phys := a.physAddr(d, stripe, sp.off)
		chunk := data[sp.bufOff : sp.bufOff+sp.frags*FragmentSize]
		tasks = append(tasks, func() error { return a.putNoted(srv, d, phys, chunk, opts) })
	}
	tasks = append(tasks, func() error {
		return a.putNoted(disks[p], p, a.physAddr(p, stripe, lo), newParity, diskservice.PutOptions{})
	})
	if err := a.fanout(tasks); err != nil {
		return err
	}
	a.met.rmw.Inc()
	return nil
}

// writeDegraded handles a partial-stripe write while disk `failed` is lost.
// Three shapes:
//
//   - the parity disk is the lost one: write the data units plainly, parity
//     is regenerated by the eventual rebuild;
//   - the lost disk holds a data unit the write does not touch: ordinary
//     read-modify-write (all participants are alive);
//   - the lost disk holds a touched data unit: its new content cannot be
//     written, so the parity absorbs it — over the lost span's positions the
//     new parity is the XOR of the new lost-unit data with every healthy
//     unit's after-write value, making the lost unit reconstructable.
func (a *Array) writeDegraded(disks []*diskservice.Server, failed, stripe int, spans []vspan, data []byte, opts diskservice.PutOptions) error {
	p := a.parityDisk(stripe)
	if failed == p {
		var tasks []func() error
		for _, sp := range spans {
			sp := sp
			d := a.dataDisk(stripe, sp.j)
			srv := disks[d]
			phys := a.physAddr(d, stripe, sp.off)
			chunk := data[sp.bufOff : sp.bufOff+sp.frags*FragmentSize]
			tasks = append(tasks, func() error { return a.putNoted(srv, d, phys, chunk, opts) })
		}
		if err := a.fanout(tasks); err != nil {
			return err
		}
		a.met.degradedWrites.Inc()
		return nil
	}

	// jf is the data unit index living on the lost disk.
	jf := failed
	if failed > p {
		jf = failed - 1
	}
	var lostSpan *vspan
	for i := range spans {
		if spans[i].j == jf {
			lostSpan = &spans[i]
		}
	}
	if lostSpan == nil {
		// Every touched unit and the parity disk are alive.
		if err := a.writeRMW(disks, stripe, spans, data, opts); err != nil {
			return err
		}
		a.met.degradedWrites.Inc()
		return nil
	}

	lo, hi := envelope(spans)
	segBytes := (hi - lo) * FragmentSize

	// Phase 1: read the old parity and every healthy data unit over the
	// envelope, in one fan-out.
	oldUnit := make([][]byte, a.k)
	var oldParity []byte
	var tasks []func() error
	for j := 0; j < a.k; j++ {
		if j == jf {
			continue
		}
		j := j
		d := a.dataDisk(stripe, j)
		srv := disks[d]
		phys := a.physAddr(d, stripe, lo)
		tasks = append(tasks, func() error {
			b, err := a.getNoted(srv, d, phys, hi-lo)
			oldUnit[j] = b
			return err
		})
	}
	tasks = append(tasks, func() error {
		b, err := a.getNoted(disks[p], p, a.physAddr(p, stripe, lo), hi-lo)
		oldParity = b
		return err
	})
	if err := a.fanout(tasks); err != nil {
		return err
	}

	// After-images of every unit over the envelope: old data overlaid with
	// the spans' new data. The lost unit is known only over its own span.
	after := make([][]byte, a.k)
	for j := 0; j < a.k; j++ {
		if j == jf {
			after[j] = make([]byte, segBytes)
		} else {
			after[j] = append([]byte(nil), oldUnit[j]...)
		}
	}
	for _, sp := range spans {
		copy(after[sp.j][(sp.off-lo)*FragmentSize:], data[sp.bufOff:sp.bufOff+sp.frags*FragmentSize])
	}

	// New parity: over the lost span's positions it is the XOR of all units'
	// after-images (the lost unit's new data included, so it becomes
	// reconstructable); elsewhere the usual RMW fold, where old XOR after is
	// zero for untouched positions.
	np := make([]byte, segBytes)
	apply := func(s, e int, inLost bool) {
		if s >= e {
			return
		}
		bs, be := (s-lo)*FragmentSize, (e-lo)*FragmentSize
		if inLost {
			for j := 0; j < a.k; j++ {
				xorInto(np[bs:be], after[j][bs:be])
			}
			return
		}
		copy(np[bs:be], oldParity[bs:be])
		for j := 0; j < a.k; j++ {
			if j == jf {
				continue
			}
			xorInto(np[bs:be], oldUnit[j][bs:be])
			xorInto(np[bs:be], after[j][bs:be])
		}
	}
	lostLo, lostHi := lostSpan.off, lostSpan.off+lostSpan.frags
	apply(lo, lostLo, false)
	apply(lostLo, lostHi, true)
	apply(lostHi, hi, false)

	// Phase 2: write the healthy units' new data, the new parity, and the
	// stable echo of the lost unit's data if the caller wanted a stable copy.
	tasks = tasks[:0]
	for _, sp := range spans {
		sp := sp
		d := a.dataDisk(stripe, sp.j)
		srv := disks[d]
		phys := a.physAddr(d, stripe, sp.off)
		chunk := data[sp.bufOff : sp.bufOff+sp.frags*FragmentSize]
		if sp.j == jf {
			if echo, ok := stableEcho(opts); ok {
				tasks = append(tasks, func() error { return srv.Put(context.Background(), phys, chunk, echo) })
			}
			continue
		}
		tasks = append(tasks, func() error { return a.putNoted(srv, d, phys, chunk, opts) })
	}
	tasks = append(tasks, func() error {
		return a.putNoted(disks[p], p, a.physAddr(p, stripe, lo), np, diskservice.PutOptions{})
	})
	if err := a.fanout(tasks); err != nil {
		return err
	}
	a.met.degradedWrites.Inc()
	return nil
}
