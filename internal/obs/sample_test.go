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
// counts after a fixed sequence are the same at "every op", the default and
// "never".
func TestCountsIndependentOfSampling(t *testing.T) {
	const n = 1000
	counts := func(r *Recorder) (out [numLayers]int64) {
		for i := 0; i < n; i++ {
			chain(r, nil)
		}
		for _, ls := range r.Profile().Layers {
			for l := Layer(0); l < numLayers; l++ {
				if ls.Layer == l.String() {
					out[l] = ls.Count
				}
			}
		}
		return out
	}
	every, def, never := New(WithSampleRate(1)), New(), New(WithSampleRate(0))
	want := counts(every)
	if want[LayerAgent] != n || want[LayerDevice] != n {
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
	if n := r.LayerWall(LayerAgent).Count(); n != roots {
		t.Fatalf("histogram saw %d of %d roots", n, roots)
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
