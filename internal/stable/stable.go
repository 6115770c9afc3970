// Package stable implements stable storage (§2.1, §6.6): a pair of mirrored
// simulated drives written with the careful-write discipline, so that every
// vital structure survives the loss or corruption of either copy.
//
// Writes go to the primary first and then to the mirror; reads come from the
// primary and fall back to the mirror (repairing the primary) on a media
// error. A recovery scan reconciles the two copies after a crash: an
// unreadable copy is restored from its twin, and when both are readable but
// differ — the signature of a crash between the two careful writes — the
// primary wins, because it is written first and therefore holds the newer
// data.
//
// The store also embeds a fragment allocator so that its clients (the disk
// service's structural mirrors, the write-ahead log, shadow-page staging)
// can claim disjoint regions of the stable address space.
package stable

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/freespace"
	"repro/internal/metrics"
)

// ErrClosed reports use of a store after Close.
var ErrClosed = errors.New("stable: store closed")

// Fault points in the careful-write sequence. The crash points bracket the
// two mirror writes of Write — dying between them is the classic
// stable-storage divergence that Recover's primary-wins rule heals — and the
// per-disk points take torn-write, crash and error injections. WriteDeferred
// has its own per-disk points, so arming the Write points leaves deferred
// writes alone; both flavours run on the caller's goroutine, so every point
// may be crash-armed under fault.Run.
var (
	PtWriteBeforePrimary = fault.Register("stable.write.before-primary")
	PtWriteAfterPrimary  = fault.Register("stable.write.after-primary")
	PtWritePrimary       = fault.Register("stable.write.primary")
	PtWriteMirror        = fault.Register("stable.write.mirror")
	PtDeferredPrimary    = fault.Register("stable.deferred.primary")
	PtDeferredMirror     = fault.Register("stable.deferred.mirror")
)

// flavour names the fault points one put-block flavour's careful write hits.
type flavour struct{ before, primary, after, mirror fault.Point }

var (
	syncWrite     = flavour{PtWriteBeforePrimary, PtWritePrimary, PtWriteAfterPrimary, PtWriteMirror}
	deferredWrite = flavour{primary: PtDeferredPrimary, mirror: PtDeferredMirror}
)

// Store is a mirrored stable store. It is safe for concurrent use.
type Store struct {
	primary *device.Disk
	mirror  *device.Disk
	alloc   *freespace.Map
	writes  *metrics.Counter // metrics.StableWrites

	// mu is held across each careful write, so Close waits out every write
	// that passed its closed check, and Recover scans a quiescent pair.
	mu      sync.Mutex
	closed  bool
	lastErr error // first unobserved error from a deferred write

	fault *fault.Injector
}

// Option configures a Store.
type Option func(*Store)

// WithMetrics sets the metric set receiving stable-write counters.
func WithMetrics(s *metrics.Set) Option {
	return func(st *Store) { st.writes = s.Counter(metrics.StableWrites) }
}

// WithFault attaches a fault injector to the store's write paths. A nil
// injector is valid and injects nothing.
func WithFault(in *fault.Injector) Option { return func(st *Store) { st.fault = in } }

// NewStore creates a stable store over two drives of identical geometry.
func NewStore(primary, mirror *device.Disk, opts ...Option) (*Store, error) {
	if primary == nil || mirror == nil {
		return nil, errors.New("stable: nil device")
	}
	if primary.Geometry() != mirror.Geometry() {
		return nil, fmt.Errorf("stable: mismatched geometries %+v vs %+v",
			primary.Geometry(), mirror.Geometry())
	}
	alloc, err := freespace.NewMap(primary.Geometry().Capacity())
	if err != nil {
		return nil, err
	}
	st := &Store{primary: primary, mirror: mirror, alloc: alloc}
	for _, o := range opts {
		o(st)
	}
	return st, nil
}

// Capacity returns the store size in fragments.
func (s *Store) Capacity() int { return s.primary.Geometry().Capacity() }

// Allocate claims n contiguous stable fragments.
func (s *Store) Allocate(n int) (int, error) { return s.alloc.Allocate(n) }

// Write stores data (a whole number of fragments) at the given fragment
// address on both mirrors, primary first, returning when both copies are on
// disk. This is the "call returned after saving on stable storage" flavour
// of put-block (§4).
func (s *Store) Write(start int, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.careful(syncWrite, start, data)
}

// WriteDeferred is the "call returned before saving on stable storage"
// flavour of put-block (§4): the caller does not wait on its outcome. It runs
// the same careful write as Write, on the caller's goroutine, but its error is
// kept for the next Barrier, Flush or Close instead of returned. The caller
// may reuse data once it returns.
func (s *Store) WriteDeferred(start int, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.careful(deferredWrite, start, data); err != nil && s.lastErr == nil {
		s.lastErr = err
	}
	return nil
}

// careful writes data to the primary and then to the mirror, hitting f's
// fault points. The caller holds s.mu.
func (s *Store) careful(f flavour, start int, data []byte) error {
	s.fault.Hit(f.before)
	if err := s.writeDisk(s.primary, f.primary, start, data); err != nil {
		return fmt.Errorf("stable: primary write: %w", err)
	}
	s.fault.Hit(f.after)
	if err := s.writeDisk(s.mirror, f.mirror, start, data); err != nil {
		return fmt.Errorf("stable: mirror write: %w", err)
	}
	s.writes.Inc()
	return nil
}

// writeDisk performs one careful write to a single mirror, honoring any
// fault armed at p: an injected error fails the write outright; a torn-write
// action persists only the armed fragment prefix and then either kills the
// run or fails the call, modeling a write interrupted by a crash or a drive
// dropping power mid-transfer.
func (s *Store) writeDisk(d *device.Disk, p fault.Point, start int, data []byte) error {
	if err := s.fault.Err(p); err != nil {
		return err
	}
	if frags, crash, ok := s.fault.Torn(p); ok {
		n := len(data) / device.FragmentSize
		if frags > n {
			frags = n
		}
		if frags > 0 {
			if err := d.WriteFragments(context.Background(), start, data[:frags*device.FragmentSize]); err != nil {
				return err
			}
		}
		if crash {
			fault.CrashNow(p)
		}
		return fmt.Errorf("torn write at %d (%d/%d fragments): %w", start, frags, n, fault.ErrInjected)
	}
	return d.WriteFragments(context.Background(), start, data)
}

// Flush returns the first deferred-write error, if any. The error stays
// recorded, so every later Flush or Close reports it too.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

// Barrier returns the first deferred-write error since the last Barrier,
// consuming it. A sync path that calls Barrier therefore cannot complete
// over a silently failed deferred write, and a retry after the caller
// repairs the fault starts clean. Flush and Close, by contrast, leave the
// error recorded.
func (s *Store) Barrier() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.lastErr
	s.lastErr = nil
	return err
}

// Read returns n fragments starting at start. It reads the primary and, on
// a media error, falls back to the mirror and repairs the primary copy.
func (s *Store) Read(start, n int) ([]byte, error) {
	data, perr := s.primary.ReadFragments(context.Background(), start, n)
	if perr == nil {
		return data, nil
	}
	if !errors.Is(perr, device.ErrMediaError) && !errors.Is(perr, device.ErrFailed) {
		return nil, perr
	}
	data, merr := s.mirror.ReadFragments(context.Background(), start, n)
	if merr != nil {
		return nil, fmt.Errorf("stable: both copies unreadable: primary %v, mirror %w", perr, merr)
	}
	// Repair the primary if it is online; a powered-off primary is repaired
	// by the next Recover.
	if errors.Is(perr, device.ErrMediaError) {
		if werr := s.primary.WriteFragments(context.Background(), start, data); werr != nil {
			return data, nil // data is good; repair is best-effort
		}
	}
	return data, nil
}

// RecoveryReport summarizes a Recover scan.
type RecoveryReport struct {
	FragmentsScanned  int
	PrimaryRepaired   int // primary fragments restored from the mirror
	MirrorRepaired    int // mirror fragments restored from the primary
	DivergenceHealed  int // both readable but different; primary propagated
	UnrecoverableLost int // both copies unreadable (catastrophe)
}

// Recover reconciles the two mirrors after a crash, scanning track by track.
// It implements the stable-storage recovery rule: restore an unreadable copy
// from its twin; when both copies are readable but differ, the primary —
// written first — wins. Writes wait for the scan, so it sees a quiescent
// pair.
func (s *Store) Recover() (RecoveryReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rep RecoveryReport
	geom := s.primary.Geometry()
	for f := 0; f < geom.Capacity(); f++ {
		rep.FragmentsScanned++
		p, perr := s.primary.ReadFragments(context.Background(), f, 1)
		m, merr := s.mirror.ReadFragments(context.Background(), f, 1)
		switch {
		case perr == nil && merr == nil:
			if !bytes.Equal(p, m) {
				if err := s.mirror.WriteFragments(context.Background(), f, p); err != nil {
					return rep, fmt.Errorf("stable: healing mirror fragment %d: %w", f, err)
				}
				rep.DivergenceHealed++
			}
		case perr != nil && merr == nil:
			if err := s.primary.WriteFragments(context.Background(), f, m); err != nil {
				return rep, fmt.Errorf("stable: restoring primary fragment %d: %w", f, err)
			}
			rep.PrimaryRepaired++
		case perr == nil && merr != nil:
			if err := s.mirror.WriteFragments(context.Background(), f, p); err != nil {
				return rep, fmt.Errorf("stable: restoring mirror fragment %d: %w", f, err)
			}
			rep.MirrorRepaired++
		default:
			rep.UnrecoverableLost++
		}
	}
	return rep, nil
}

// Close rejects further writes, once every write already under way has
// landed, and returns the first deferred-write error, if any. Close is
// idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.lastErr
}
