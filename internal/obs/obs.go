// Package obs is the observability layer: span-based request tracing
// threaded through every Figure-1 layer of the facility, lock-free
// per-layer latency histograms, a bounded flight recorder of recent span
// trees, and gauges for instantaneous state (disk queue depth, lock
// waiters).
//
// A Span records its layer, operation, file/txn id, start and end in both
// wall time and virtual time (the simclock makespan), and the outcome.
// Spans nest via context.Context — a started span is itself the context its
// callees receive — so one client operation yields a tree:
// agent → fileservice → lock wait → diskservice → device transfer. When a
// root span ends its completed tree is pushed into the flight recorder;
// when a fault-injection point fires the recorder snapshots the in-flight
// trees, so every torture failure ships with the trace of the op that died.
//
// Everything is nil-safe: a nil *Recorder, *Span, *Gauge or *Histogram
// accepts every method call and does nothing. Instrumented code therefore
// pays only a nil check — plus, on ctx-threaded paths, one context.Value
// lookup — when tracing is off. BenchmarkSpanDisabled in this package and
// BenchmarkReadAtCached8KB in fileservice pin that cost at ~0 ns/op.
//
// Cost model (TestSpanAllocBudget pins it). Every instrumented op pays one
// Op bracket per layer: no allocation, and at its end a record of the op's
// virtual time, which is also the layer's count — so counts and virtual
// times are exact whether or not the op was traced or timed. Reading the
// wall clock is the part worth sampling (two reads per bracket, the
// commit's largest share of recorder CPU), so only roots — StartRoot,
// StartOr when it starts one, StartRemoteOp — and spans in a traced tree
// read it on every op; an interior histogram-only bracket reads it for one
// op in the sample rate, by a coin of its own, and records a wall time only
// then (TestWallTimingRule pins the rule). Only a retained trace pays for
// spans: one allocation each (wall times are offsets from the recorder's
// epoch, the span doubles as its own context node, and its first inlineKids
// children are linked without growing a slice).
//
// A span tree comes to exist in three ways: the request arrived with trace
// identity (StartRemoteOp with a non-zero trace ID — the caller already
// decided); head sampling picked the root (WithSampleRate, default one root
// in DefaultSampleRate); or the tail rule — a root that fails or runs past
// SlowThreshold leaves a flat SlowOp record in a fixed ring and forces the
// next root of its layer to be traced in full, at most once per SlowThreshold
// and layer, so a run of expected failures (lock conflicts, aborts) cannot
// spend more than that on trees. An untraced root puts nothing in the
// context, so nothing a goroutine that outlives the root can reach is ever
// reused.
//
// Concurrency and ownership contract: a Recorder is safe for concurrent use
// — histograms (latency and named value histograms alike) are lock-free
// atomic bucket arrays, gauges are atomics, and the flight recorder's ring
// has its own mutex. A *Span is owned by the goroutine that started it:
// start and end it on one goroutine (children on other goroutines get their
// own spans via the context). Profile() and Flight() return snapshots the
// caller owns; they never alias live recorder state.
package obs

import (
	"context"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Layer identifies one Figure-1 layer of the facility.
type Layer int

const (
	LayerAgent Layer = iota
	LayerFileService
	LayerLock
	LayerTxn
	LayerWal
	LayerReplication
	LayerParity
	LayerDiskService
	LayerDevice
	LayerRPC
	LayerCluster
	numLayers
)

var layerNames = [numLayers]string{
	"agent", "fileservice", "lock", "txn", "wal", "replication",
	"parity", "diskservice", "device", "rpc", "cluster",
}

// String returns the layer's canonical name as used in profiles and dumps.
func (l Layer) String() string {
	if l < 0 || l >= numLayers {
		return "unknown"
	}
	return layerNames[l]
}

const (
	defaultFlightCap = 64
	faultDumpCap     = 8
	faultRecentCap   = 8
	slowOpCap        = 64
)

// DefaultSampleRate is the head-sampling rate of a Recorder built without
// WithSampleRate: one root in 64 gets a span tree.
const DefaultSampleRate = 64

// SlowThreshold is the wall time at which a root counts as slow. It is the
// facility's own unit of "stopped working, started waiting": the lock
// manager's default timeout period (lock.Config.LT) and the ceiling of the rpc
// client's retry back-off are both 100 ms, and it is five times the worst p99
// a healthy server has printed under load (E20, 256 clients on the serial
// transport: 21 ms), so an operation that is merely busy does not reach it.
// A constant until a deployment needs another value.
const SlowThreshold = 100 * time.Millisecond

// Recorder collects spans, histograms, gauges and fault dumps for one
// cluster. A nil Recorder is a valid no-op sink.
type Recorder struct {
	epoch   time.Time
	virtNow func() time.Duration
	wall    [numLayers]Histogram
	virt    [numLayers]Histogram
	self    [numLayers]Histogram // inclusive − children, from traced trees only
	flight  *ring[*Span]

	sampleRate uint32 // trace one root in sampleRate; 1 = every root, 0 = none
	forceNext  [numLayers]atomic.Bool
	forceAfter [numLayers]atomic.Int64 // wall offset before which the tail rule forces no further tree
	slow       *ring[SlowOp]

	gmu    sync.Mutex
	gauges map[string]*Gauge

	vmu    sync.Mutex
	values map[string]*Histogram

	amu    sync.Mutex
	active *Span // head of the in-flight roots, linked through the spans

	dmu       sync.Mutex
	dumps     []*FaultDump
	dumpDrops int64

	// events is the event log, allocated by the first Event: most recorders
	// never log one.
	events atomic.Pointer[ring[Event]]
}

// Option configures a Recorder.
type Option func(*Recorder)

// WithSampleRate sets head sampling: one root in n gets a span tree, and one
// interior histogram-only bracket in n reads the wall clock, each chosen at
// random per op. 1 traces and times every op — what a trace dump, a
// fault-dump reader or a test asserting tree shapes or interior wall times
// wants; 0 or less turns head sampling off, leaving only trees the tail rule
// forces and requests that arrive with trace identity, and interior wall
// times only inside those trees. Roots are wall-timed, and every op is
// counted with its virtual time, at any rate.
func WithSampleRate(n int) Option {
	return func(r *Recorder) { r.sampleRate = uint32(max(n, 0)) }
}

// New creates a Recorder. With no option it samples: every op is counted,
// every root is wall-timed, one root in DefaultSampleRate builds a span tree
// and one interior bracket in DefaultSampleRate is wall-timed.
func New(opts ...Option) *Recorder {
	r := &Recorder{
		epoch:      time.Now(),
		flight:     newRing[*Span](defaultFlightCap),
		slow:       newRing[SlowOp](slowOpCap),
		gauges:     make(map[string]*Gauge),
		sampleRate: DefaultSampleRate,
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// SampleRate returns the head-sampling rate: one root in n is traced, 1
// means every op, 0 (also a nil Recorder's answer) means none.
func (r *Recorder) SampleRate() int {
	if r == nil {
		return 0
	}
	return int(r.sampleRate)
}

// SetVirtualClock installs the virtual-time source after construction. The
// cluster calls this while wiring itself up, before any instrumented
// operation runs; it must not be called concurrently with tracing.
func (r *Recorder) SetVirtualClock(now func() time.Duration) {
	if r == nil {
		return
	}
	r.virtNow = now
}

func (r *Recorder) vnow() time.Duration {
	if r == nil || r.virtNow == nil {
		return 0
	}
	return r.virtNow()
}

// LayerCount returns how many operations the layer has recorded — every
// one, timed or not, traced or not (zero on a nil Recorder).
func (r *Recorder) LayerCount(layer Layer) int64 {
	if r == nil || layer < 0 || layer >= numLayers {
		return 0
	}
	return r.virt[layer].Count()
}

// Gauge is an instantaneous value: queue depth, waiter count. A nil Gauge
// accepts every method.
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() {
	if g != nil {
		g.v.Add(1)
	}
}

// Dec subtracts one.
func (g *Gauge) Dec() {
	if g != nil {
		g.v.Add(-1)
	}
}

// Add adds d.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the current value (zero on a nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Gauge returns the named gauge, creating it on first use. Returns nil —
// still usable — on a nil Recorder.
func (r *Recorder) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.gmu.Lock()
	defer r.gmu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// ValueHist returns the named unit-less value histogram, creating it on
// first use — for integer quantities that want a distribution rather than a
// running count (group-commit batch sizes). Record values as
// time.Duration(n); the bucketing is the same log-scale scheme the latency
// histograms use. Returns nil — still usable — on a nil Recorder.
func (r *Recorder) ValueHist(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.vmu.Lock()
	defer r.vmu.Unlock()
	if r.values == nil {
		r.values = make(map[string]*Histogram)
	}
	h := r.values[name]
	if h == nil {
		h = &Histogram{}
		r.values[name] = h
	}
	return h
}

// ValueHists returns the named value histograms (nil map on a nil Recorder).
func (r *Recorder) ValueHists() map[string]*Histogram {
	if r == nil {
		return nil
	}
	r.vmu.Lock()
	defer r.vmu.Unlock()
	out := make(map[string]*Histogram, len(r.values))
	for name, h := range r.values {
		out[name] = h
	}
	return out
}

// Gauges returns a snapshot of every gauge's current value.
func (r *Recorder) Gauges() map[string]int64 {
	if r == nil {
		return nil
	}
	r.gmu.Lock()
	defer r.gmu.Unlock()
	out := make(map[string]int64, len(r.gauges))
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	return out
}

// inlineKids is how many children a span links without allocating: the
// commit and read paths start two to four per parent, and only a fan-out
// wider than this spills to a slice.
const inlineKids = 4

// Span is one timed operation in one layer. A nil Span accepts every
// method and does nothing, so callers never need to check whether tracing
// is on.
//
// A started Span is also the context.Context its callees run under: it
// answers Value(ctxKey{}) with itself and defers everything else to the
// context it was started in, so a span costs one allocation, not a span plus
// a context.WithValue node. (The context methods are the one place a nil
// Span is not accepted; no Start function returns a nil Span as a context.)
type Span struct {
	ctx    context.Context // the context the span was started in
	rec    *Recorder
	parent *Span
	layer  Layer

	// Identity for cross-process stitching, fixed at creation: every span
	// gets a process-unique spanID; roots mint a traceID that children
	// inherit; a continuation root started by StartRemoteOp also records the
	// remote caller's span as remoteParent.
	traceID      uint64
	spanID       uint64
	remoteParent uint64

	// Wall times are monotonic offsets from rec.epoch: one clock read each.
	startWall time.Duration
	startVirt time.Duration

	// A root's links in the recorder's in-flight list (guarded by rec.amu).
	activePrev, activeNext *Span

	mu      sync.Mutex
	op      string
	file    uint64
	txn     uint64
	bytes   int64
	count   int64
	endWall time.Duration
	endVirt time.Duration
	errmsg  string
	done    bool
	nkids   int
	kids    [inlineKids]*Span
	more    []*Span // children beyond inlineKids
}

type ctxKey struct{}

// Deadline implements context.Context by deferring to the enclosing context.
func (s *Span) Deadline() (time.Time, bool) { return s.ctx.Deadline() }

// Done implements context.Context by deferring to the enclosing context.
func (s *Span) Done() <-chan struct{} { return s.ctx.Done() }

// Err implements context.Context by deferring to the enclosing context.
func (s *Span) Err() error { return s.ctx.Err() }

// Value implements context.Context: the span is the value of its own key.
func (s *Span) Value(key any) any {
	if key == (ctxKey{}) {
		return s
	}
	return s.ctx.Value(key)
}

// FromContext returns the span active in ctx, or nil.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// StartSpan starts a child of the span active in ctx and returns it as the
// context for the work it brackets. When ctx carries no span it returns
// (ctx, nil) — the disabled fast path is one context lookup and a nil check.
func StartSpan(ctx context.Context, layer Layer, op string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.rec.newSpan(ctx, layer, op, parent)
	return child, child
}

// StartRoot brackets a new top-level operation on r. Every root is timed
// into its layer's histograms; a span tree is built only for the roots the
// recorder samples (see the package comment), and then the returned context
// is the root span, registered as in-flight until it ends so fault dumps can
// capture it mid-operation. An unsampled root allocates nothing and returns
// ctx unchanged, so every StartOp below it is histogram-only too.
func (r *Recorder) StartRoot(ctx context.Context, layer Layer, op string) (context.Context, RootOp) {
	if r == nil {
		return ctx, RootOp{}
	}
	if !r.sampled(layer) {
		return ctx, RootOp{Op: Op{r: r, layer: layer, t0: r.wallNow(), v0: r.vnow()}, name: op}
	}
	sp := r.newRoot(ctx, layer, op, newID(), 0)
	return sp, RootOp{Op: Op{sp: sp}}
}

// sampled decides whether the next root of layer gets a span tree: always at
// rate 1, when the tail rule forced it, or when the coin says so.
func (r *Recorder) sampled(layer Layer) bool {
	if r.sampleRate == 1 {
		return true
	}
	if f := &r.forceNext[layer]; f.Load() && f.CompareAndSwap(true, false) {
		return true
	}
	return r.coin()
}

// coin is head sampling's draw, for a root's tree and an interior bracket's
// wall timing alike: always at rate 1, never at rate 0, otherwise one time in
// sampleRate by the runtime's per-thread generator — no shared counter.
func (r *Recorder) coin() bool {
	return r.sampleRate == 1 || r.sampleRate > 1 && rand.Uint32N(r.sampleRate) == 0
}

// StartOr nests under the span in ctx when there is one, and otherwise
// starts a root on r — for layers that are entry points for some callers (a
// txn service driven directly) and interior for others. Below an unsampled
// root it is a root again, with its own sampling decision.
func (r *Recorder) StartOr(ctx context.Context, layer Layer, op string) (context.Context, RootOp) {
	if ctx, child := StartSpan(ctx, layer, op); child != nil {
		return ctx, RootOp{Op: Op{sp: child}}
	}
	if r == nil {
		return ctx, RootOp{} // here, not through StartRoot: a RootOp is ten words to copy
	}
	return r.StartRoot(ctx, layer, op)
}

// idState seeds span/trace IDs: a random per-process origin advanced by an
// odd constant (a Weyl sequence), so IDs are process-unique without
// coordination and two processes' sequences never collide in practice.
var idState atomic.Uint64

func init() { idState.Store(rand.Uint64() | 1) }

func newID() uint64 {
	id := idState.Add(0x9e3779b97f4a7c15)
	if id == 0 {
		id = idState.Add(0x9e3779b97f4a7c15)
	}
	return id
}

// wallNow is the recorder's wall clock: the monotonic time since its epoch,
// one clock read (time.Now reads the wall clock as well).
func (r *Recorder) wallNow() time.Duration { return time.Since(r.epoch) }

// newRoot starts a traced root: traceID is freshly minted, or the remote
// caller's together with its span as remoteParent, so StitchTraces can
// reattach the two trees into one.
func (r *Recorder) newRoot(ctx context.Context, layer Layer, op string, traceID, remoteParent uint64) *Span {
	sp := r.newSpan(ctx, layer, op, nil)
	sp.traceID = traceID
	sp.remoteParent = remoteParent
	r.register(sp)
	return sp
}

// newSpan starts a span under parent; a root (nil parent) is newRoot's to
// give a traceID and register.
func (r *Recorder) newSpan(ctx context.Context, layer Layer, op string, parent *Span) *Span {
	sp := &Span{
		ctx:       ctx,
		rec:       r,
		parent:    parent,
		layer:     layer,
		op:        op,
		spanID:    newID(),
		startWall: r.wallNow(),
		startVirt: r.vnow(),
	}
	if parent != nil {
		sp.traceID = parent.traceID
		parent.mu.Lock()
		if parent.nkids < inlineKids {
			parent.kids[parent.nkids] = sp
		} else {
			parent.more = append(parent.more, sp)
		}
		parent.nkids++
		parent.mu.Unlock()
	}
	return sp
}

// register links a root into the in-flight list; unregister unlinks it. The
// list is intrusive (the links live in the span), so neither allocates.
func (r *Recorder) register(sp *Span) {
	r.amu.Lock()
	sp.activeNext = r.active
	if r.active != nil {
		r.active.activePrev = sp
	}
	r.active = sp
	r.amu.Unlock()
}

func (r *Recorder) unregister(sp *Span) {
	r.amu.Lock()
	if sp.activePrev != nil {
		sp.activePrev.activeNext = sp.activeNext
	} else {
		r.active = sp.activeNext
	}
	if sp.activeNext != nil {
		sp.activeNext.activePrev = sp.activePrev
	}
	sp.activePrev, sp.activeNext = nil, nil
	r.amu.Unlock()
}

// TraceID returns the span's trace identity (zero on a nil Span).
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.traceID
}

// SpanID returns the span's process-unique identity (zero on a nil Span).
func (s *Span) SpanID() uint64 {
	if s == nil {
		return 0
	}
	return s.spanID
}

// SetFile annotates the span with a file id.
func (s *Span) SetFile(id uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.file = id
	s.mu.Unlock()
}

// SetTxn annotates the span with a transaction id.
func (s *Span) SetTxn(id uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.txn = id
	s.mu.Unlock()
}

// AddBytes accumulates the span's transferred byte count.
func (s *Span) AddBytes(n int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.bytes += int64(n)
	s.mu.Unlock()
}

// SetCount annotates the span with an item count (e.g. the number of
// commits a group-sync barrier covered) — distinct from the byte count, so
// aggregating consumers never mistake one for the other.
func (s *Span) SetCount(n int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.count = int64(n)
	s.mu.Unlock()
}

func (s *Span) end(err error, cost time.Duration) {
	if s == nil {
		return
	}
	r := s.rec
	now := r.wallNow()
	vnow := r.vnow()
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	s.endWall = now
	if cost >= 0 {
		s.endVirt = s.startVirt + cost
	} else {
		s.endVirt = vnow
		if s.endVirt < s.startVirt {
			s.endVirt = s.startVirt
		}
	}
	if err != nil {
		s.errmsg = err.Error()
	}
	wallDur := now - s.startWall
	virtDur := s.endVirt - s.startVirt
	file, txn, bytes := s.file, s.txn, s.bytes
	s.mu.Unlock()

	r.wall[s.layer].Record(wallDur)
	r.virt[s.layer].Record(virtDur)
	if s.parent == nil {
		r.unregister(s)
		r.recordSelf(s)
		r.flight.add(s)
		if isTail(wallDur, err) {
			r.tail(s.layer, SlowOp{Op: s.op, File: file, Txn: txn, Bytes: bytes,
				StartWallNS: int64(s.startWall), WallNS: int64(wallDur), VirtNS: int64(virtDur)}, err)
		}
	}
}

// recordSelf walks a finished root's tree once and records every completed
// span's self time — its wall time minus the part of it its completed
// children cover — into the per-layer self histograms. It reports the span's
// interval, and false for a span still running (a read-ahead or flush that
// outlives the root), which is left out along with its subtree.
func (r *Recorder) recordSelf(s *Span) (start, end time.Duration, done bool) {
	s.mu.Lock()
	start, end, done = s.startWall, s.endWall, s.done
	n, kids, more := s.nkids, s.kids, s.more
	s.mu.Unlock()
	if !done {
		return 0, 0, false
	}
	// Children are linked in start order, so one sweep measures the union
	// of their intervals: concurrent children are not counted twice.
	self, covered := end-start, start
	for i := 0; i < n; i++ {
		var c *Span
		if i < inlineKids {
			c = kids[i]
		} else {
			c = more[i-inlineKids]
		}
		cs, ce, ok := r.recordSelf(c)
		if lo, hi := max(cs, covered), min(ce, end); ok && hi > lo {
			self -= hi - lo
			covered = hi
		}
	}
	r.self[s.layer].Record(self)
	return start, end, true
}

// Op brackets one instrumented operation with whichever sink applies: a
// span when the operation is traced (a child of the span ctx carries, or a
// sampled root), a histogram-only observation on r otherwise — its virtual
// time always, its wall time when it is a root or its coin came up — and
// nothing at all without either. The zero Op is a valid no-op, so call
// sites need no conditionals:
//
//	ctx, op := s.rec.StartOp(ctx, obs.LayerDiskService, "get")
//	... do the work with ctx ...
//	op.End(err)
//
// An Op lives in its caller's frame: it is never put in a context, so
// nothing that outlives the operation can reach it.
type Op struct {
	sp    *Span
	r     *Recorder
	layer Layer
	t0    time.Duration // r.wallNow() at the start, or untimed
	v0    time.Duration
}

// untimed is the t0 of a bracket that does not read the wall clock.
const untimed time.Duration = -1

// StartOp starts an interior operation bracket (see Op): a span under the
// one ctx carries, or else a histogram-only bracket that reads the wall
// clock for one op in the sample rate. Safe on a nil Recorder: it still
// nests under a span already in ctx, whose own recorder it reaches through
// the span.
func (r *Recorder) StartOp(ctx context.Context, layer Layer, op string) (context.Context, Op) {
	return r.startOp(ctx, layer, op, false)
}

// StartRemoteOp is the bracket of a request arriving at a server, the
// server's root: with a nonzero traceID the caller already decided to
// trace, so it continues the remote caller's tree with a root span on r
// whatever the sample rate; otherwise it is StartOp, except that it reads
// the wall clock on every op.
func (r *Recorder) StartRemoteOp(ctx context.Context, layer Layer, op string, traceID, parentSpanID uint64) (context.Context, Op) {
	if traceID == 0 || r == nil {
		return r.startOp(ctx, layer, op, true)
	}
	sp := r.newRoot(ctx, layer, op, traceID, parentSpanID)
	return sp, Op{sp: sp}
}

func (r *Recorder) startOp(ctx context.Context, layer Layer, op string, root bool) (context.Context, Op) {
	ctx2, sp := StartSpan(ctx, layer, op)
	if sp != nil {
		return ctx2, Op{sp: sp}
	}
	if r == nil {
		return ctx, Op{}
	}
	t0 := untimed
	if root || r.coin() {
		t0 = r.wallNow()
	}
	return ctx, Op{r: r, layer: layer, t0: t0, v0: r.vnow()}
}

// Span returns the op's span (nil when observing histograms only).
func (o *Op) Span() *Span { return o.sp }

// SetFile, SetTxn, AddBytes and SetCount annotate the operation's span (see
// the Span methods); without a span there is nothing to annotate.
func (o *Op) SetFile(id uint64) { o.sp.SetFile(id) }
func (o *Op) SetTxn(id uint64)  { o.sp.SetTxn(id) }
func (o *Op) AddBytes(n int)    { o.sp.AddBytes(n) }
func (o *Op) SetCount(n int)    { o.sp.SetCount(n) }

// End completes the bracket, recording its virtual duration, and its wall
// duration when it was timed, into the layer histograms; ending a root span
// pushes the finished tree into the flight recorder. End is idempotent.
func (o *Op) End(err error) { o.end(err, -1) }

// EndCost is End with an exact virtual-time cost. The device layer uses it
// because its modeled seek+transfer cost is known precisely, whereas the
// shared virtual clock folds in concurrently overlapping operations.
func (o *Op) EndCost(cost time.Duration, err error) { o.end(err, cost) }

// end reports the durations it recorded, and false when it recorded no wall
// time here: the span did, the bracket was untimed or had ended already, or
// it is the zero Op.
func (o *Op) end(err error, cost time.Duration) (wall, virt time.Duration, ok bool) {
	if o.sp != nil {
		o.sp.end(err, cost)
		return 0, 0, false
	}
	r := o.r
	if r == nil {
		return 0, 0, false
	}
	o.r = nil
	if cost < 0 {
		cost = max(r.vnow()-o.v0, 0)
	}
	r.virt[o.layer].Record(cost)
	if o.t0 == untimed {
		return 0, cost, false
	}
	wall = r.wallNow() - o.t0
	r.wall[o.layer].Record(wall)
	return wall, cost, true
}

// RootOp is the bracket of a top-level operation (StartRoot, StartOr): an Op
// that, when no span was built for it, keeps what the span would have been
// annotated with, so a root that fails or runs slow untraced still leaves a
// whole SlowOp record. Only roots carry these fields; the bracket every
// layer pays stays five words.
type RootOp struct {
	Op
	name      string
	file, txn uint64
	bytes     int64
}

// SetFile annotates the operation with a file id.
func (o *RootOp) SetFile(id uint64) {
	o.Op.SetFile(id)
	o.file = id
}

// SetTxn annotates the operation with a transaction id.
func (o *RootOp) SetTxn(id uint64) {
	o.Op.SetTxn(id)
	o.txn = id
}

// AddBytes accumulates the operation's transferred byte count.
func (o *RootOp) AddBytes(n int) {
	o.Op.AddBytes(n)
	o.bytes += int64(n)
}

// End completes the bracket and applies the tail rule (a traced root's span
// applies it itself). Idempotent.
func (o *RootOp) End(err error) {
	r := o.r // end clears it
	if wall, virt, ok := o.end(err, -1); ok && isTail(wall, err) {
		r.tail(o.layer, SlowOp{Op: o.name, File: o.file, Txn: o.txn, Bytes: o.bytes,
			StartWallNS: int64(o.t0), WallNS: int64(wall), VirtNS: int64(virt)}, err)
	}
}

// SpanData is an immutable snapshot of a span tree, safe to render or
// marshal while the live tree keeps mutating. Times are nanoseconds; wall
// starts are relative to the recorder's epoch.
type SpanData struct {
	Layer string `json:"layer"`
	Op    string `json:"op"`
	// TraceID groups the spans of one logical operation across processes;
	// SpanID identifies this span; ParentSpanID is set only on continuation
	// roots (StartRemoteOp) and names the remote caller's span, which
	// StitchTraces uses to reattach the trees.
	TraceID      uint64      `json:"trace_id,omitempty"`
	SpanID       uint64      `json:"span_id,omitempty"`
	ParentSpanID uint64      `json:"parent_span_id,omitempty"`
	File         uint64      `json:"file,omitempty"`
	Txn          uint64      `json:"txn,omitempty"`
	Bytes        int64       `json:"bytes,omitempty"`
	Count        int64       `json:"count,omitempty"`
	StartWallNS  int64       `json:"start_wall_ns"`
	WallNS       int64       `json:"wall_ns"`
	StartVirtNS  int64       `json:"start_virt_ns"`
	VirtNS       int64       `json:"virt_ns"`
	Err          string      `json:"err,omitempty"`
	InFlight     bool        `json:"in_flight,omitempty"`
	Children     []*SpanData `json:"children,omitempty"`
}

// Data deep-copies the span tree into its export form.
func (s *Span) Data() *SpanData {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	d := &SpanData{
		Layer:        s.layer.String(),
		Op:           s.op,
		TraceID:      s.traceID,
		SpanID:       s.spanID,
		ParentSpanID: s.remoteParent,
		File:         s.file,
		Txn:          s.txn,
		Bytes:        s.bytes,
		Count:        s.count,
		StartWallNS:  int64(s.startWall),
		StartVirtNS:  int64(s.startVirt),
		Err:          s.errmsg,
		InFlight:     !s.done,
	}
	if s.done {
		d.WallNS = int64(s.endWall - s.startWall)
		d.VirtNS = int64(s.endVirt - s.startVirt)
	}
	kids := make([]*Span, 0, s.nkids)
	kids = append(kids, s.kids[:min(s.nkids, inlineKids)]...)
	kids = append(kids, s.more...)
	s.mu.Unlock()
	if len(kids) > 0 {
		d.Children = make([]*SpanData, len(kids))
		for i, c := range kids {
			d.Children[i] = c.Data()
		}
	}
	return d
}

// Flight returns the retained completed span trees, oldest first.
func (r *Recorder) Flight() []*SpanData {
	if r == nil {
		return nil
	}
	roots := r.flight.snapshot(0)
	out := make([]*SpanData, len(roots))
	for i, sp := range roots {
		out[i] = sp.Data()
	}
	return out
}

// InFlight snapshots the span trees of operations still in progress,
// ordered by start time.
func (r *Recorder) InFlight() []*SpanData {
	if r == nil {
		return nil
	}
	r.amu.Lock()
	var roots []*Span
	for sp := r.active; sp != nil; sp = sp.activeNext {
		roots = append(roots, sp)
	}
	r.amu.Unlock()
	out := make([]*SpanData, 0, len(roots))
	for _, sp := range roots {
		out = append(out, sp.Data())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartWallNS < out[j].StartWallNS })
	return out
}
