package obs

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var r *Recorder
	ctx, sp := r.StartRoot(context.Background(), LayerAgent, "read")
	if sp.Span() != nil {
		t.Fatalf("nil recorder returned non-nil span")
	}
	if FromContext(ctx) != nil {
		t.Fatalf("nil recorder leaked a span into ctx")
	}
	_, child := StartSpan(ctx, LayerFileService, "read")
	if child != nil {
		t.Fatalf("StartSpan without a parent returned non-nil span")
	}
	// Every method must be a no-op, not a panic.
	sp.SetFile(1)
	sp.SetTxn(2)
	sp.AddBytes(3)
	sp.End(nil)
	sp.EndCost(time.Second, errors.New("x"))
	sp.Span().End(nil)
	if sp.Span().Data() != nil {
		t.Fatalf("nil span Data() != nil")
	}
	r.Observe(LayerDevice, time.Millisecond, time.Millisecond)
	r.RecordFault("p", "crash")
	if r.Profile() != nil || r.Flight() != nil || r.InFlight() != nil || r.FaultDumps() != nil {
		t.Fatalf("nil recorder returned non-nil aggregates")
	}
	var g *Gauge
	g.Inc()
	g.Dec()
	g.Add(5)
	g.Set(7)
	if g.Value() != 0 {
		t.Fatalf("nil gauge value = %d", g.Value())
	}
	if r.Gauge("x") != nil {
		t.Fatalf("nil recorder returned non-nil gauge")
	}
	r.SetVirtualClock(func() time.Duration { return 0 })
}

func TestSpanTreeNesting(t *testing.T) {
	var virt time.Duration
	r := New(WithSampleRate(1))
	r.SetVirtualClock(func() time.Duration { return virt })
	ctx, root := r.StartRoot(context.Background(), LayerAgent, "read")
	root.SetFile(42)
	if got := len(r.InFlight()); got != 1 {
		t.Fatalf("in-flight roots = %d, want 1", got)
	}

	ctx2, fs := StartSpan(ctx, LayerFileService, "readAt")
	virt += 3 * time.Millisecond
	_, dev := StartSpan(ctx2, LayerDevice, "read")
	dev.AddBytes(8192)
	dev.EndCost(5*time.Millisecond, nil)
	fs.End(nil)
	virt += 2 * time.Millisecond
	root.End(nil)

	if got := len(r.InFlight()); got != 0 {
		t.Fatalf("in-flight after root end = %d, want 0", got)
	}
	trees := r.Flight()
	if len(trees) != 1 {
		t.Fatalf("flight trees = %d, want 1", len(trees))
	}
	d := trees[0]
	if d.Layer != "agent" || d.Op != "read" || d.File != 42 {
		t.Fatalf("root = %+v", d)
	}
	if len(d.Children) != 1 || d.Children[0].Layer != "fileservice" {
		t.Fatalf("children = %+v", d.Children)
	}
	devd := d.Children[0].Children[0]
	if devd.Layer != "device" || devd.Bytes != 8192 {
		t.Fatalf("device span = %+v", devd)
	}
	// EndCost pins the virtual duration to the exact modeled cost.
	if devd.VirtNS != int64(5*time.Millisecond) {
		t.Fatalf("device virt = %d, want %d", devd.VirtNS, 5*time.Millisecond)
	}
	// The root's virtual duration tracks the shared clock.
	if d.VirtNS != int64(5*time.Millisecond) {
		t.Fatalf("root virt = %d, want %d", d.VirtNS, 5*time.Millisecond)
	}
	// Histograms saw one observation per layer touched.
	for _, l := range []Layer{LayerAgent, LayerFileService, LayerDevice} {
		if n := r.LayerCount(l); n != 1 {
			t.Fatalf("layer %s wall count = %d, want 1", l, n)
		}
	}
	// The rendered tree mentions every layer.
	text := d.String()
	for _, want := range []string{"agent read", "fileservice readAt", "device read", "bytes=8192"} {
		if !strings.Contains(text, want) {
			t.Fatalf("rendered tree missing %q:\n%s", want, text)
		}
	}
}

func TestStartOr(t *testing.T) {
	r := New(WithSampleRate(1))
	// Without a span in ctx, StartOr roots a new tree.
	ctx, root := r.StartOr(context.Background(), LayerTxn, "commit")
	if root.Span() == nil || root.Span().parent != nil {
		t.Fatalf("StartOr did not root a tree")
	}
	// With a span in ctx, StartOr nests — whatever the recorder it is
	// called on samples.
	_, child := New(WithSampleRate(0)).StartOr(ctx, LayerLock, "wait")
	if child.Span() == nil || child.Span().parent != root.Span() {
		t.Fatalf("StartOr did not nest under the ctx span")
	}
	child.End(nil)
	root.End(nil)
	// A nil recorder still nests under an existing ctx span.
	var nilRec *Recorder
	_, child2 := nilRec.StartOr(WithSpan(context.Background(), root.Span()), LayerLock, "wait")
	if child2.Span() == nil {
		t.Fatalf("nil recorder StartOr lost the ctx span chain")
	}
	child2.End(nil)
}

func TestEndIdempotent(t *testing.T) {
	r := New(WithSampleRate(1))
	_, sp := r.StartRoot(context.Background(), LayerAgent, "op")
	sp.End(nil)
	sp.End(errors.New("second"))
	if n := r.LayerCount(LayerAgent); n != 1 {
		t.Fatalf("double End recorded %d observations", n)
	}
	if len(r.Flight()) != 1 {
		t.Fatalf("double End pushed %d trees", len(r.Flight()))
	}
	if d := r.Flight()[0]; d.Err != "" {
		t.Fatalf("second End mutated the span: err=%q", d.Err)
	}
	// The same holds for an untraced root and for a plain bracket.
	r = New(WithSampleRate(0))
	_, root := r.StartRoot(context.Background(), LayerAgent, "op")
	_, op := r.StartOp(context.Background(), LayerDevice, "io")
	for i := 0; i < 2; i++ {
		op.End(nil)
		root.End(errors.New("failed"))
	}
	if a, d := r.LayerCount(LayerAgent), r.LayerCount(LayerDevice); a != 1 || d != 1 {
		t.Fatalf("double End of untraced brackets recorded %d and %d observations", a, d)
	}
	if n := len(r.SlowOps()); n != 1 {
		t.Fatalf("double End of a failed root left %d slow-op records", n)
	}
}

func TestFaultDumpCapturesInFlight(t *testing.T) {
	r := New(WithSampleRate(1))
	ctx, root := r.StartRoot(context.Background(), LayerTxn, "commit")
	root.SetTxn(7)
	_, dev := StartSpan(ctx, LayerDevice, "write")

	// A previously completed op should appear under Recent.
	_, done := r.StartRoot(context.Background(), LayerAgent, "read")
	done.End(nil)

	r.RecordFault("commit.after-log", "crash")

	dumps := r.FaultDumps()
	if len(dumps) != 1 {
		t.Fatalf("dumps = %d, want 1", len(dumps))
	}
	d := dumps[0]
	if d.Point != "commit.after-log" || d.Kind != "crash" {
		t.Fatalf("dump header = %+v", d)
	}
	if len(d.InFlight) != 1 {
		t.Fatalf("in-flight trees = %d, want 1", len(d.InFlight))
	}
	tree := d.InFlight[0]
	if tree.Layer != "txn" || tree.Txn != 7 || !tree.InFlight {
		t.Fatalf("interrupted root = %+v", tree)
	}
	if len(tree.Children) != 1 || tree.Children[0].Layer != "device" || !tree.Children[0].InFlight {
		t.Fatalf("interrupted child = %+v", tree.Children)
	}
	if len(d.Recent) != 1 || d.Recent[0].Layer != "agent" {
		t.Fatalf("recent trees = %+v", d.Recent)
	}
	dev.End(errors.New("torn"))
	root.End(errors.New("crash"))

	// The dump is a snapshot: ending the spans must not retroactively
	// change it.
	if d2 := r.FaultDumps()[0]; !d2.InFlight[0].InFlight {
		t.Fatalf("dump mutated after span end")
	}
}

func TestFaultDumpBound(t *testing.T) {
	r := New()
	for i := 0; i < faultDumpCap+5; i++ {
		r.RecordFault("p", "err")
	}
	if n := len(r.FaultDumps()); n != faultDumpCap {
		t.Fatalf("dumps retained = %d, want %d", n, faultDumpCap)
	}
}

func TestGauges(t *testing.T) {
	r := New()
	g := r.Gauge("disk.0.queue")
	g.Inc()
	g.Inc()
	g.Dec()
	if v := g.Value(); v != 1 {
		t.Fatalf("gauge = %d, want 1", v)
	}
	if r.Gauge("disk.0.queue") != g {
		t.Fatalf("gauge registry returned a different instance")
	}
	snap := r.Gauges()
	if snap["disk.0.queue"] != 1 {
		t.Fatalf("gauge snapshot = %v", snap)
	}
}

func TestProfileRender(t *testing.T) {
	r := New()
	for i := 0; i < 100; i++ {
		r.Observe(LayerDevice, time.Duration(i+1)*time.Millisecond, time.Duration(i+1)*time.Millisecond)
	}
	r.Gauge("lock.waiters").Set(3)
	p := r.Profile()
	if p == nil {
		t.Fatal("nil profile")
	}
	var dev *LayerStats
	for i := range p.Layers {
		if p.Layers[i].Layer == "device" {
			dev = &p.Layers[i]
		}
	}
	if dev == nil || dev.Count != 100 {
		t.Fatalf("device stats = %+v", dev)
	}
	if dev.WallP50NS <= 0 || dev.WallP99NS < dev.WallP50NS {
		t.Fatalf("quantiles out of order: p50=%d p99=%d", dev.WallP50NS, dev.WallP99NS)
	}
	text := p.String()
	for _, want := range []string{"device", "wall p99", "lock.waiters = 3"} {
		if !strings.Contains(text, want) {
			t.Fatalf("profile text missing %q:\n%s", want, text)
		}
	}
	if _, err := p.JSON(); err != nil {
		t.Fatalf("profile JSON: %v", err)
	}
}

// TestConcurrentSpans exercises parallel span creation, fault dumps and
// flight snapshots under the race detector.
func TestConcurrentSpans(t *testing.T) {
	r := New(WithSampleRate(1))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx, root := r.StartRoot(context.Background(), LayerAgent, "op")
				_, child := StartSpan(ctx, LayerDevice, "io")
				child.AddBytes(512)
				child.End(nil)
				if i%50 == 0 {
					r.RecordFault("p", "delay")
				}
				root.End(nil)
			}
		}(g)
	}
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for i := 0; i < 100; i++ {
			r.InFlight()
			r.Flight()
			r.Profile()
		}
	}()
	wg.Wait()
	snapWG.Wait()
	if n := r.LayerCount(LayerAgent); n != 8*200 {
		t.Fatalf("agent observations = %d, want %d", n, 8*200)
	}
	if got := len(r.Flight()); got != defaultFlightCap {
		t.Fatalf("flight retained = %d, want %d", got, defaultFlightCap)
	}
}

// TestSpanAllocBudget pins the cost model in the package comment: a span is
// one allocation — no context node beside it, no slice for its first
// children — and the histogram-only Op bracket, the path every untraced
// request takes through an instrumented layer, allocates nothing, as a root
// or below one.
func TestSpanAllocBudget(t *testing.T) {
	r := New(WithSampleRate(1))
	r.SetVirtualClock(func() time.Duration { return 0 })
	ctx := context.Background()
	if n := testing.AllocsPerRun(200, func() {
		ctx2, root := r.StartRoot(ctx, LayerAgent, "read")
		_, child := StartSpan(ctx2, LayerDevice, "io")
		child.End(nil)
		root.End(nil)
	}); n > 2 {
		t.Errorf("root + one child = %v allocations, budget 2", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		ctx2, root := r.StartRoot(ctx, LayerAgent, "read")
		for i := 0; i < inlineKids; i++ {
			_, child := StartSpan(ctx2, LayerDevice, "io")
			child.End(nil)
		}
		root.End(nil)
	}); n > 1+inlineKids {
		t.Errorf("root + %d children = %v allocations, budget %d", inlineKids, n, 1+inlineKids)
	}
	if n := testing.AllocsPerRun(200, func() {
		_, op := r.StartOp(ctx, LayerDiskService, "put")
		op.AddBytes(8192)
		op.End(nil)
	}); n != 0 {
		t.Errorf("histogram-only Op bracket = %v allocations, budget 0", n)
	}
	never := New(WithSampleRate(0))
	if n := testing.AllocsPerRun(200, func() {
		ctx2, root := never.StartRoot(ctx, LayerAgent, "read")
		root.SetFile(7)
		_, child := never.StartOp(ctx2, LayerDevice, "io")
		child.AddBytes(8192)
		child.EndCost(time.Millisecond, nil)
		root.End(nil)
	}); n != 0 {
		t.Errorf("unsampled root + child bracket = %v allocations, budget 0", n)
	}
}

// A span is the context its callees run under, so everything the enclosing
// context carried must still be reachable through it: values, cancellation,
// the deadline.
func TestSpanIsTheEnclosingContext(t *testing.T) {
	type key struct{}
	outer, cancel := context.WithCancel(context.WithValue(context.Background(), key{}, "v"))
	ctx, root := New(WithSampleRate(1)).StartRoot(outer, LayerAgent, "read")
	ctx, child := StartSpan(ctx, LayerDevice, "io")
	if FromContext(ctx) != child || FromContext(context.WithValue(ctx, key{}, "w")) != child {
		t.Fatal("the innermost span is not the one the context reports")
	}
	if got := ctx.Value(key{}); got != "v" {
		t.Fatalf("outer value through two spans = %v", got)
	}
	// A context derived from a span is cancelled with the enclosing one.
	derived, cancelDerived := context.WithCancel(ctx)
	defer cancelDerived()
	if ctx.Err() != nil {
		t.Fatal("cancelled before cancel")
	}
	cancel()
	<-derived.Done()
	if !errors.Is(ctx.Err(), context.Canceled) || !errors.Is(derived.Err(), context.Canceled) {
		t.Fatalf("after cancel: span ctx %v, derived %v", ctx.Err(), derived.Err())
	}
	child.End(nil)
	root.End(nil)
}

// Children beyond the inline slots are kept, in start order, and roots leave
// the in-flight set in whatever order they end.
func TestManyChildrenAndInFlightSet(t *testing.T) {
	r := New(WithSampleRate(1))
	ctx, root := r.StartRoot(context.Background(), LayerAgent, "fan-out")
	const n = 2*inlineKids + 1
	for i := 0; i < n; i++ {
		_, c := StartSpan(ctx, LayerDevice, "io")
		c.SetCount(i)
		c.End(nil)
	}
	_, a := r.StartRoot(context.Background(), LayerAgent, "a")
	_, b := r.StartRoot(context.Background(), LayerAgent, "b")
	inFlight := func() string {
		var ops []string
		for _, d := range r.InFlight() {
			ops = append(ops, d.Op)
		}
		return strings.Join(ops, ",")
	}
	if got := inFlight(); got != "fan-out,a,b" {
		t.Fatalf("in flight = %s", got)
	}
	a.End(nil) // the middle of the list
	if got := inFlight(); got != "fan-out,b" {
		t.Fatalf("in flight after a ended = %s", got)
	}
	root.End(nil)
	b.End(nil)
	if got := inFlight(); got != "" {
		t.Fatalf("in flight after all ended = %s", got)
	}
	kids := r.Flight()[1].Children // a, then fan-out, then b
	if len(kids) != n {
		t.Fatalf("%d children recorded, started %d", len(kids), n)
	}
	for i, k := range kids {
		if k.Count != int64(i) {
			t.Fatalf("child %d is the one started %d-th", i, k.Count)
		}
	}
}
