package obs

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Mean() != 0 {
		t.Fatalf("empty histogram not zero")
	}
	h.Record(0)
	h.Record(time.Microsecond)
	h.Record(100 * time.Microsecond)
	h.Record(10 * time.Millisecond)
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 10*time.Millisecond {
		t.Fatalf("max = %v", h.Max())
	}
	wantSum := time.Microsecond + 100*time.Microsecond + 10*time.Millisecond
	if h.Sum() != wantSum {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
	// p100 clamps to the exact max, not the bucket midpoint.
	if h.Quantile(1.0) != 10*time.Millisecond {
		t.Fatalf("p100 = %v", h.Quantile(1.0))
	}
	// Negative durations clamp to zero rather than corrupting buckets.
	h.Record(-time.Second)
	if h.Count() != 5 || h.Max() != 10*time.Millisecond {
		t.Fatalf("negative record mishandled: count=%d max=%v", h.Count(), h.Max())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	// 90 fast observations, 10 slow: p50 must land in the fast band and
	// p99 in the slow band, within the 2x bucket resolution.
	for i := 0; i < 90; i++ {
		h.Record(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Record(50 * time.Millisecond)
	}
	p50 := h.Quantile(0.50)
	p99 := h.Quantile(0.99)
	if p50 < 50*time.Microsecond || p50 > 200*time.Microsecond {
		t.Fatalf("p50 = %v, want ~100µs", p50)
	}
	if p99 < 25*time.Millisecond || p99 > 100*time.Millisecond {
		t.Fatalf("p99 = %v, want ~50ms", p99)
	}
	if p50 >= p99 {
		t.Fatalf("p50 %v >= p99 %v", p50, p99)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 10; i++ {
		a.Record(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		b.Record(time.Second)
	}
	a.Merge(&b)
	if a.Count() != 20 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Max() != time.Second {
		t.Fatalf("merged max = %v", a.Max())
	}
	if p99 := a.Quantile(0.99); p99 < 500*time.Millisecond {
		t.Fatalf("merged p99 = %v, want ~1s", p99)
	}
	// Nil receivers and operands are no-ops.
	var nilH *Histogram
	nilH.Record(time.Second)
	nilH.Merge(&a)
	a.Merge(nilH)
	if a.Count() != 20 {
		t.Fatalf("nil merge changed count: %d", a.Count())
	}
}

// TestHistogramConcurrent hammers Record from many goroutines while
// Quantile and Merge readers run — the histogram must stay lock-free
// coherent under the race detector, and the final totals must be exact.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const (
		writers    = 8
		perWriter  = 5000
		recordedNS = int64(time.Millisecond)
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Record(time.Duration(recordedNS + int64(i%7)))
			}
		}(w)
	}
	var readerWG sync.WaitGroup
	readerWG.Add(2)
	go func() {
		defer readerWG.Done()
		for i := 0; i < 2000; i++ {
			_ = h.Quantile(0.99)
			_ = h.Mean()
		}
	}()
	go func() {
		defer readerWG.Done()
		var sink Histogram
		for i := 0; i < 200; i++ {
			sink.Merge(&h)
		}
	}()
	wg.Wait()
	readerWG.Wait()
	if h.Count() != writers*perWriter {
		t.Fatalf("count = %d, want %d", h.Count(), writers*perWriter)
	}
	p50 := h.Quantile(0.50)
	if p50 < 500*time.Microsecond || p50 > 3*time.Millisecond {
		t.Fatalf("p50 = %v, want ~1ms", p50)
	}
}

// The log-linear buckets hold a quantile within 3 % of the sample it stands
// for across the whole range, and small integers — batch sizes — exactly.
func TestHistogramResolution(t *testing.T) {
	for v := int64(1); v < int64(time.Hour); v = v*21/20 + 1 {
		var h Histogram
		h.Record(time.Duration(v))
		h.Record(time.Duration(2 * v)) // so the maximum does not clamp p50 to v
		got := int64(h.Quantile(0.5))
		if err := float64(got-v) / float64(v); err > 0.03 || err < -0.03 {
			t.Fatalf("p50 of {%d, %d} = %d: %.1f %% off", v, 2*v, got, 100*err)
		}
		if v < 2*histSub && got != v {
			t.Fatalf("p50 of {%d, %d} = %d, small values are exact", v, 2*v, got)
		}
	}
	// Beyond the last octave everything lands in the last bucket.
	if i := bucketOf(1 << 62); i != histBuckets-1 {
		t.Fatalf("bucketOf(2^62) = %d, want the last bucket %d", i, histBuckets-1)
	}
	// Distinct latencies inside one octave get distinct quantiles: the
	// power-of-two histogram printed p50 = p95 = p99 here.
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Record(20*time.Millisecond + time.Duration(i)*100*time.Microsecond)
	}
	if p50, p99 := h.Quantile(0.50), h.Quantile(0.99); p99 < p50+3*time.Millisecond {
		t.Fatalf("p50 %v and p99 %v of a 20–30 ms spread are not told apart", p50, p99)
	}
}
