package obs

import (
	"io"
	"sync"
	"time"
)

// ring is a bounded ring buffer of the most recent entries, overwritten
// oldest-first: the flight recorder's completed root span trees, the tail
// rule's slow-op records, and the event log.
type ring[T any] struct {
	mu   sync.Mutex
	buf  []T
	next int
	n    int // total ever added
}

func newRing[T any](capacity int) *ring[T] {
	return &ring[T]{buf: make([]T, capacity)}
}

func (f *ring[T]) add(v T) {
	f.mu.Lock()
	f.buf[f.next] = v
	f.next = (f.next + 1) % len(f.buf)
	f.n++
	f.mu.Unlock()
}

// snapshot returns the retained entries oldest-first; max > 0 keeps only the
// newest max of them.
func (f *ring[T]) snapshot(max int) []T {
	f.mu.Lock()
	defer f.mu.Unlock()
	size := f.n
	if size > len(f.buf) {
		size = len(f.buf)
	}
	start := f.next - size
	if start < 0 {
		start += len(f.buf)
	}
	out := make([]T, 0, size)
	for i := 0; i < size; i++ {
		out = append(out, f.buf[(start+i)%len(f.buf)])
	}
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// total returns how many entries were ever recorded (including overwritten).
func (f *ring[T]) total() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// SlowOp is the flat record the tail rule keeps of a root that failed or ran
// past the slow threshold, whether or not a span tree was built for it. Times
// are nanoseconds; the wall start is relative to the recorder's epoch, as in
// SpanData, so a record can be lined up with the trees around it.
type SlowOp struct {
	Layer       string `json:"layer"`
	Op          string `json:"op"`
	File        uint64 `json:"file,omitempty"`
	Txn         uint64 `json:"txn,omitempty"`
	Bytes       int64  `json:"bytes,omitempty"`
	StartWallNS int64  `json:"start_wall_ns"`
	WallNS      int64  `json:"wall_ns"`
	VirtNS      int64  `json:"virt_ns"`
	Err         string `json:"err,omitempty"`
}

// isTail reports whether a root that ran for wall and returned err falls
// under the tail rule.
func isTail(wall time.Duration, err error) bool {
	return err != nil || wall >= SlowThreshold
}

// tail records op in the slow-op ring and forces the next root of its layer
// to be traced in full, so sustained slowness yields real trees within one
// op however low the sample rate. Every such root is recorded; a tree is
// forced at most once per SlowThreshold and layer, because "failed" includes
// the errors a contended mix returns all the time (a lock conflict, an abort,
// a busy retry), and a tree for every other root would undo the sampling.
func (r *Recorder) tail(layer Layer, op SlowOp, err error) {
	op.Layer = layer.String()
	if err != nil {
		op.Err = err.Error()
	}
	r.slow.add(op)
	end := op.StartWallNS + op.WallNS
	if after := &r.forceAfter[layer]; end >= after.Load() {
		after.Store(end + int64(SlowThreshold))
		r.forceNext[layer].Store(true)
	}
}

// SlowOps returns the retained slow-op records, oldest first.
func (r *Recorder) SlowOps() []SlowOp {
	if r == nil {
		return nil
	}
	return r.slow.snapshot(0)
}

// Render writes the record as one line, the way a childless span renders.
func (o SlowOp) Render(w io.Writer) {
	(&SpanData{Layer: o.Layer, Op: o.Op, File: o.File, Txn: o.Txn, Bytes: o.Bytes,
		WallNS: o.WallNS, VirtNS: o.VirtNS, Err: o.Err}).Render(w)
}

// FaultDump is the flight-recorder state captured the instant a
// fault-injection point fired: the interrupted (in-flight) span trees plus
// the most recently completed ones. It is what an E18 torture failure
// ships with — the trace of the op that died.
type FaultDump struct {
	Point    string      `json:"point"`
	Kind     string      `json:"kind"`
	WallNS   int64       `json:"wall_ns"` // since recorder epoch
	InFlight []*SpanData `json:"in_flight,omitempty"`
	Recent   []*SpanData `json:"recent,omitempty"`
}

// RecordFault captures a FaultDump. It is wired as the fault.Injector
// observer, which invokes it outside the injector's mutex and — for crash
// kinds — before the typed panic unwinds, so the dying operation is still
// registered as in-flight when the snapshot is taken.
func (r *Recorder) RecordFault(point, kind string) {
	if r == nil {
		return
	}
	d := &FaultDump{
		Point:    point,
		Kind:     kind,
		WallNS:   time.Since(r.epoch).Nanoseconds(),
		InFlight: r.InFlight(),
	}
	for _, sp := range r.flight.snapshot(faultRecentCap) {
		d.Recent = append(d.Recent, sp.Data())
	}
	r.dmu.Lock()
	if len(r.dumps) < faultDumpCap {
		r.dumps = append(r.dumps, d)
	} else {
		r.dumpDrops++
	}
	r.dmu.Unlock()
}

// FaultDumps returns the captured dumps in arrival order. The store is
// bounded at faultDumpCap; later fires are counted but dropped.
func (r *Recorder) FaultDumps() []*FaultDump {
	if r == nil {
		return nil
	}
	r.dmu.Lock()
	defer r.dmu.Unlock()
	out := make([]*FaultDump, len(r.dumps))
	copy(out, r.dumps)
	return out
}
