package obs

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

// chain runs one root with a child bracket per layer below it, the way an
// instrumented request descends the stack.
func chain(r *Recorder, err error) {
	ctx, root := r.StartRoot(context.Background(), LayerAgent, "read")
	root.SetFile(9)
	ctx, fs := r.StartOp(ctx, LayerFileService, "readAt")
	ctx, ds := r.StartOp(ctx, LayerDiskService, "get")
	_, dev := r.StartOp(ctx, LayerDevice, "read")
	dev.AddBytes(8192)
	dev.EndCost(time.Millisecond, err)
	ds.End(err)
	fs.End(err)
	root.AddBytes(8192)
	root.End(err)
}

// Every op is counted whatever the sample rate: the per-layer histogram
// counts and virtual-time columns after a fixed sequence are the same at
// "every op", the default and "never".
func TestCountsIndependentOfSampling(t *testing.T) {
	const n = 1000
	type exact struct{ count, virtP50, virtP99 int64 }
	counts := func(r *Recorder) (out [numLayers]exact) {
		for i := 0; i < n; i++ {
			chain(r, nil)
		}
		for _, ls := range r.Profile().Layers {
			for l := Layer(0); l < numLayers; l++ {
				if ls.Layer == l.String() {
					out[l] = exact{ls.Count, ls.VirtP50NS, ls.VirtP99NS}
				}
			}
		}
		return out
	}
	every, def, never := New(WithSampleRate(1)), New(), New(WithSampleRate(0))
	want := counts(every)
	if want[LayerAgent].count != n || want[LayerDevice].count != n || want[LayerDevice].virtP50 == 0 {
		t.Fatalf("every-op counts = %v, want %d per touched layer", want, n)
	}
	if got := counts(def); got != want {
		t.Errorf("default-rate counts = %v, every-op %v", got, want)
	}
	if got := counts(never); got != want {
		t.Errorf("never-sample counts = %v, every-op %v", got, want)
	}
	if trees := never.Profile().Trees; trees != 0 {
		t.Errorf("never-sample recorder built %d trees", trees)
	}
	if trees := every.Profile().Trees; trees != n {
		t.Errorf("every-op recorder built %d trees, want %d", trees, n)
	}
}

func TestHeadSamplingShare(t *testing.T) {
	const roots = 64000
	r := New()
	if r.SampleRate() != DefaultSampleRate {
		t.Fatalf("default sample rate = %d", r.SampleRate())
	}
	for i := 0; i < roots; i++ {
		_, root := r.StartRoot(context.Background(), LayerAgent, "op")
		root.End(nil)
	}
	want := float64(roots) / DefaultSampleRate
	if got := float64(r.Profile().Trees); math.Abs(got-want) > 0.2*want {
		t.Fatalf("%v of %d roots traced, want %v ± 20 %%", got, roots, want)
	}
	if n := r.LayerCount(LayerAgent); n != roots {
		t.Fatalf("histogram saw %d of %d roots", n, roots)
	}
}

// TestWallTimingRule: a root reads the wall clock on every op at any rate;
// an interior histogram-only bracket reads it on every op at rate 1, one op
// in n at rate n and never at rate 0; and what every op records — its count
// and its virtual time — does not depend on the rate. A layer holding both
// (the txn layer's roots and its group-sync) therefore wall-times every root
// but only a sample of its interior ops: below rate 1 its wall columns
// under-weight the interior ones.
func TestWallTimingRule(t *testing.T) {
	const n = 64000
	run := func(r *Recorder) map[string]LayerStats {
		var vt time.Duration
		r.SetVirtualClock(func() time.Duration { return vt })
		for i := 0; i < n; i++ {
			// A server's entry, and below it a bracket outside any tree (as
			// the log's sync is), then a root with its interior chain.
			ctx, req := r.StartRemoteOp(context.Background(), LayerRPC, "fs.read", 0, 0)
			_, sync := r.StartOp(ctx, LayerWal, "sync")
			vt += time.Microsecond
			sync.End(nil)
			req.End(nil)
			chain(r, nil)
			// A commit's end, a root, and below it an interior bracket of
			// the same layer.
			ctx, end := r.StartOr(context.Background(), LayerTxn, "end")
			_, gs := r.StartOp(ctx, LayerTxn, "group-sync")
			gs.End(nil)
			end.End(nil)
		}
		out := map[string]LayerStats{}
		for _, ls := range r.Profile().Layers {
			out[ls.Layer] = ls
		}
		return out
	}
	timed := func(ls LayerStats) int64 {
		if ls.Wall == nil { // an empty histogram exports none
			return 0
		}
		return ls.Wall.Count
	}
	roots := []string{"rpc", "agent"}
	interior := []string{"wal", "fileservice", "diskservice", "device"}

	every := run(New(WithSampleRate(1)))
	for _, l := range append(roots, interior...) {
		if ls := every[l]; ls.Count != n || timed(ls) != n {
			t.Errorf("rate 1: layer %s counted %d ops and timed %d, want %d of each", l, ls.Count, timed(ls), n)
		}
	}
	if ls := every["txn"]; ls.Count != 2*n || timed(ls) != 2*n {
		t.Errorf("rate 1: mixed layer txn counted %d ops and timed %d, want %d of each", ls.Count, timed(ls), 2*n)
	}

	def := run(New())
	for _, l := range roots {
		if ls := def[l]; timed(ls) != ls.Count {
			t.Errorf("default rate: root layer %s timed %d of %d ops", l, timed(ls), ls.Count)
		}
	}
	// The log's sync is never in a tree: only its own coin times it, so the
	// timed count is binomial(n, 1/64) — mean 1000, σ ≈ 31; ±20 % is 6σ.
	want := float64(n) / DefaultSampleRate
	if got := float64(timed(def["wal"])); math.Abs(got-want) > 0.2*want {
		t.Errorf("default rate: %v of %d interior brackets timed, want %v ± 20 %%", got, n, want)
	}
	// The chain's interior is also timed whole in each traced tree: about
	// 2n/64 in all, well below n.
	for _, l := range interior[1:] {
		if got := timed(def[l]); got < n/DefaultSampleRate || got > 3*n/DefaultSampleRate {
			t.Errorf("default rate: layer %s timed %d of %d ops, want about %d", l, got, n, 2*n/DefaultSampleRate)
		}
	}
	// The mixed layer: every root, and its group-syncs as the chain's
	// interior — so its timed ops are n roots and about 2n/64 group-syncs.
	if ls := def["txn"]; ls.Count != 2*n {
		t.Errorf("default rate: mixed layer txn counted %d ops, want %d", ls.Count, 2*n)
	} else if got := timed(ls) - n; got < n/DefaultSampleRate || got > 3*n/DefaultSampleRate {
		t.Errorf("default rate: mixed layer txn timed %d interior ops beside its %d roots, want about %d", got, n, 2*n/DefaultSampleRate)
	}

	never := run(New(WithSampleRate(0)))
	for _, l := range roots {
		if got := timed(never[l]); got != n {
			t.Errorf("rate 0: root layer %s timed %d of %d ops", l, got, n)
		}
	}
	for _, l := range interior {
		if got := timed(never[l]); got != 0 {
			t.Errorf("rate 0: interior layer %s timed %d ops, want none", l, got)
		}
	}
	if got := timed(never["txn"]); got != n {
		t.Errorf("rate 0: mixed layer txn timed %d ops, want its %d roots only", got, n)
	}

	for name, got := range map[string]map[string]LayerStats{"default": def, "0": never} {
		for _, l := range append(roots, append(interior, "txn")...) {
			if g, w := got[l], every[l]; g.Count != w.Count || g.Virt.SumNS != w.Virt.SumNS || g.VirtP99NS != w.VirtP99NS {
				t.Errorf("rate %s: layer %s counted %d ops over %d virtual ns, rate 1 %d over %d",
					name, l, g.Count, g.Virt.SumNS, w.Count, w.Virt.SumNS)
			}
		}
	}
	if every["wal"].Virt.SumNS != int64(n*time.Microsecond) {
		t.Fatalf("the log's virtual time sums to %d ns, want %d", every["wal"].Virt.SumNS, n*time.Microsecond)
	}
}

// advance moves r's wall clock forward by d: the clock is the monotonic time
// since the epoch, so an earlier epoch is a later now.
func advance(r *Recorder, d time.Duration) { r.epoch = r.epoch.Add(-d) }

// The tail rule: a root that fails, and one that runs past the threshold,
// each leave a slow-op record, and the next root of that layer — only that
// layer — is traced in full although head sampling is off.
func TestTailRule(t *testing.T) {
	r := New(WithSampleRate(0))
	chain(r, nil)
	if len(r.SlowOps()) != 0 || len(r.Flight()) != 0 {
		t.Fatalf("a fast, successful root left %d slow ops and %d trees", len(r.SlowOps()), len(r.Flight()))
	}

	chain(r, errors.New("media error"))
	slow := r.SlowOps()
	if len(slow) != 1 {
		t.Fatalf("slow ops after a failed root = %d, want 1", len(slow))
	}
	if s := slow[0]; s.Layer != "agent" || s.Op != "read" || s.File != 9 || s.Bytes != 8192 || s.Err != "media error" {
		t.Fatalf("slow-op record = %+v", s)
	}
	if len(r.Flight()) != 0 {
		t.Fatal("the failed root itself was traced with head sampling off")
	}
	_, other := r.StartRoot(context.Background(), LayerTxn, "end")
	other.End(nil)
	if len(r.Flight()) != 0 {
		t.Fatal("a failed agent root forced a tree in another layer")
	}
	chain(r, nil)
	trees := r.Flight()
	if len(trees) != 1 {
		t.Fatalf("trees after the root following a failure = %d, want 1", len(trees))
	}
	if d := trees[0]; d.Layer != "agent" || len(d.Children) != 1 ||
		len(d.Children[0].Children) != 1 || len(d.Children[0].Children[0].Children) != 1 {
		t.Fatalf("forced tree is not whole:\n%s", d)
	}
	chain(r, nil)
	if len(r.Flight()) != 1 {
		t.Fatal("the force outlived one root")
	}

	// A slow root, held past the threshold by the fake clock.
	_, root := r.StartRoot(context.Background(), LayerAgent, "write")
	root.SetTxn(3)
	advance(r, SlowThreshold+30*time.Millisecond)
	root.End(nil)
	slow = r.SlowOps()
	if len(slow) != 2 {
		t.Fatalf("slow ops after a slow root = %d, want 2", len(slow))
	}
	if s := slow[1]; s.Op != "write" || s.Txn != 3 || s.Err != "" || s.WallNS < int64(SlowThreshold) {
		t.Fatalf("slow-op record = %+v", s)
	}
	chain(r, nil)
	if len(r.Flight()) != 2 {
		t.Fatalf("trees after the root following a slow one = %d, want 2", len(r.Flight()))
	}
	// A traced root that is slow is recorded too, and sustained slowness
	// keeps the trees coming.
	ctx, root := r.StartRoot(context.Background(), LayerAgent, "write")
	if FromContext(ctx) != nil {
		t.Fatal("nothing forced this root, yet it is traced")
	}
	advance(r, time.Second)
	root.End(nil)
	for i := 0; i < 3; i++ {
		_, root := r.StartRoot(context.Background(), LayerAgent, "write")
		if root.Span() == nil {
			t.Fatalf("root %d after a slow one is not traced", i)
		}
		advance(r, time.Second)
		root.End(nil)
	}
	if p := r.Profile(); p.SlowOps != 6 || p.Trees != 5 || p.SampleRate != 0 {
		t.Fatalf("profile: slow ops %d, trees %d, sample rate %d; want 6, 5, 0", p.SlowOps, p.Trees, p.SampleRate)
	}

	// A burst of failures — what a contended mix returns all the time — is
	// recorded whole but forces one tree per SlowThreshold, not one per
	// failure: the first root below is the tree the last slow one forced, and
	// no other follows. The ring is fixed: it keeps the newest records.
	for i := 0; i < 2*slowOpCap; i++ {
		_, root := r.StartRoot(context.Background(), LayerAgent, "x")
		root.SetFile(uint64(i))
		root.End(errors.New("e"))
	}
	if p := r.Profile(); p.SlowOps != 6+2*slowOpCap || p.Trees != 6 {
		t.Fatalf("after %d failures in a row: slow ops %d, trees %d; want %d, 6", 2*slowOpCap, p.SlowOps, p.Trees, 6+2*slowOpCap)
	}
	slow = r.SlowOps()
	if len(slow) != slowOpCap || slow[0].File != slowOpCap || slow[slowOpCap-1].File != 2*slowOpCap-1 {
		t.Fatalf("ring holds %d records, files %d..%d", len(slow), slow[0].File, slow[len(slow)-1].File)
	}
}

// A fault dump still captures the roots in flight that are traced; an
// untraced root leaves nothing to capture.
func TestFaultDumpCapturesSampledRoots(t *testing.T) {
	r := New(WithSampleRate(0))
	_, failed := r.StartRoot(context.Background(), LayerTxn, "end")
	failed.End(errors.New("aborted")) // forces the next txn root
	ctx, traced := r.StartRoot(context.Background(), LayerTxn, "end")
	traced.SetTxn(7)
	_, dev := r.StartOp(ctx, LayerDevice, "write")
	_, untraced := r.StartRoot(context.Background(), LayerTxn, "end")
	r.RecordFault("txn.commit.after-log", "crash")
	dev.End(nil)
	traced.End(nil)
	untraced.End(nil)
	d := r.FaultDumps()[0]
	if len(d.InFlight) != 1 || d.InFlight[0].Txn != 7 || !d.InFlight[0].InFlight ||
		len(d.InFlight[0].Children) != 1 || d.InFlight[0].Children[0].Layer != "device" {
		t.Fatalf("fault dump in-flight trees = %+v", d.InFlight)
	}
}

// Self time: each traced span's wall time minus what its children cover. On
// a serial chain the per-layer self means sum to the root's mean.
func TestSelfTime(t *testing.T) {
	r := New(WithSampleRate(1))
	for i := 0; i < 20; i++ {
		ctx, root := r.StartRoot(context.Background(), LayerAgent, "read")
		advance(r, 1*time.Millisecond)
		ctx, fs := r.StartOp(ctx, LayerFileService, "readAt")
		advance(r, 2*time.Millisecond)
		// Two concurrent device references cover one interval: the union,
		// not the sum, comes off the parent.
		_, d1 := r.StartOp(ctx, LayerDevice, "read")
		_, d2 := r.StartOp(ctx, LayerDevice, "read")
		advance(r, 4*time.Millisecond)
		d1.End(nil)
		d2.End(nil)
		// A child that outlives the root is left out.
		_, late := r.StartOp(ctx, LayerDiskService, "readahead")
		fs.End(nil)
		advance(r, 1*time.Millisecond)
		root.End(nil)
		late.End(nil)
	}
	p := r.Profile()
	self := map[string]LayerStats{}
	for _, ls := range p.Layers {
		self[ls.Layer] = ls
	}
	near := func(got int64, want time.Duration) bool {
		return math.Abs(float64(got)-float64(want)) <= 0.05*float64(want)
	}
	if a, f, d := self["agent"], self["fileservice"], self["device"]; !near(a.SelfMeanNS, 2*time.Millisecond) ||
		!near(f.SelfMeanNS, 2*time.Millisecond) || !near(d.SelfMeanNS, 4*time.Millisecond) ||
		a.SelfCount != 20 || f.SelfCount != 20 || d.SelfCount != 40 {
		t.Fatalf("self means agent %d fileservice %d device %d (counts %d %d %d)",
			a.SelfMeanNS, f.SelfMeanNS, d.SelfMeanNS, a.SelfCount, f.SelfCount, d.SelfCount)
	}
	if ds := self["diskservice"]; ds.SelfCount != 0 || ds.Count != 20 {
		t.Fatalf("a span that outlived its root: self count %d, count %d", ds.SelfCount, ds.Count)
	}
}

// A recorder that never traces has no self time to report, and says so.
func TestProfileLabelsSelfTimeAsSampled(t *testing.T) {
	r := New(WithSampleRate(0))
	chain(r, nil)
	text := r.Profile().String()
	for _, want := range []string{"self mean*", "in the 0 span tree(s) traced"} {
		if !strings.Contains(text, want) {
			t.Fatalf("profile text missing %q:\n%s", want, text)
		}
	}
}
