package obs

import (
	"context"
	"errors"
	"testing"
	"time"
)

// BenchmarkSpanDisabled measures the no-tracer fast path an instrumented
// call site pays when no recorder is installed: one context lookup, a nil
// span, and nil-safe method calls. This is the overhead budget the ISSUE
// pins at ~0 ns/op; CI runs it alongside the fileservice cached-read
// benchmark.
func BenchmarkSpanDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx2, sp := StartSpan(ctx, LayerFileService, "readAt")
		sp.AddBytes(8192)
		sp.End(nil)
		_ = ctx2
	}
}

// BenchmarkSpanDisabledRoot measures the same path through a layer that
// roots spans itself (txn service) when its recorder is nil.
func BenchmarkSpanDisabledRoot(b *testing.B) {
	var r *Recorder
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx2, sp := r.StartOr(ctx, LayerTxn, "commit")
		sp.SetTxn(1)
		sp.End(nil)
		_ = ctx2
	}
}

// BenchmarkSpanEnabled is the comparison point: a full root+child tree
// on a recorder that traces every op.
func BenchmarkSpanEnabled(b *testing.B) {
	benchRootAndChild(b, New(WithSampleRate(1)), nil)
}

// BenchmarkSpanSampled is what an installed recorder costs by default: the
// same root and child as histogram-only brackets, a tree one time in 64.
func BenchmarkSpanSampled(b *testing.B) {
	benchRootAndChild(b, New(), nil)
}

// BenchmarkSpanSampledFailing is the same with every root returning an
// error, the way a contended transaction mix does: each leaves a slow-op
// record, and the tail rule may force a tree only once per SlowThreshold.
func BenchmarkSpanSampledFailing(b *testing.B) {
	r := New()
	benchRootAndChild(b, r, errors.New("lock conflict"))
	b.ReportMetric(float64(r.Profile().Trees)/float64(b.N), "trees/op")
}

func benchRootAndChild(b *testing.B, r *Recorder, err error) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx2, root := r.StartRoot(ctx, LayerAgent, "read")
		_, child := r.StartOp(ctx2, LayerDevice, "io")
		child.End(err)
		root.End(err)
	}
}

// BenchmarkHistogramRecord measures the lock-free histogram write path.
func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i))
	}
}

// BenchmarkHistogramRecordParallel measures contention across cores.
func BenchmarkHistogramRecordParallel(b *testing.B) {
	var h Histogram
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Record(time.Millisecond)
		}
	})
}
