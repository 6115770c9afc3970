package obs

import (
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// Log-linear bucketing, the scheme of bench/hist.go: values (nanoseconds)
// below 2·histSub are counted exactly; above that every power of two is cut
// into histSub equal buckets, so a bucket is at most 1/32 of its lower bound
// wide and the midpoint a quantile reports is within 1.6 % of every sample in
// it. The size is fixed, so Record never allocates.
const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	histMaxBits = 42 // 2^42 ns ≈ 73 min; larger samples land in the last bucket
	histBuckets = (histMaxBits - histSubBits + 1) * histSub
)

// bucketOf returns the index of the bucket counting v.
func bucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - histSubBits - 1
	if i := e*histSub + int(v>>uint(e)); i < histBuckets {
		return i
	}
	return histBuckets - 1
}

// bucketMid is the value a sample in bucket i is reported as.
func bucketMid(i int) int64 {
	if i < 2*histSub {
		return int64(i)
	}
	e := uint(i/histSub - 1)
	low := int64(i%histSub+histSub) << e
	return low + int64(1)<<e/2
}

// Histogram is a lock-free log-linear latency histogram (see bucketOf for
// the scheme). Record, Quantile and Merge are all safe to call concurrently;
// quantiles are computed from a best-effort snapshot of the buckets, which
// is exact once recording quiesces. A nil Histogram accepts every method.
//
// There is no running count: Record is on every instrumented op's path and
// the buckets already hold it, so the readers add them up instead.
type Histogram struct {
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Record adds one observation. Negative durations clamp to zero.
func (h *Histogram) Record(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	h.buckets[bucketOf(uint64(ns))].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.max.Load())
}

// Mean returns the average observation.
func (h *Histogram) Mean() time.Duration {
	if h == nil {
		return 0
	}
	n := h.Count()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Quantile estimates the q-quantile (0 < q ≤ 1): the midpoint of the bucket
// holding the ⌈q·count⌉-th observation, clamped to the observed maximum.
func (h *Histogram) Quantile(q float64) time.Duration {
	return h.Data().Quantile(q)
}

// HistData is the exportable snapshot of a Histogram: the same log-linear
// buckets in sparse form, JSON-marshalable, so snapshots scraped from
// different processes can be merged and re-queried for fleet-wide
// quantiles. A nil HistData accepts every method.
type HistData struct {
	Count int64 `json:"count"`
	SumNS int64 `json:"sum_ns"`
	MaxNS int64 `json:"max_ns"`
	// Buckets maps bucket index (bucketOf the observed nanosecond value, at
	// ProfileVersion's scheme) to its count; empty buckets are omitted, so
	// snapshots with disjoint ranges merge cleanly.
	Buckets map[int]int64 `json:"buckets,omitempty"`
}

// Data snapshots the histogram, or nil when it has no observations.
func (h *Histogram) Data() *HistData {
	if h == nil {
		return nil
	}
	d := &HistData{
		SumNS:   h.sum.Load(),
		MaxNS:   h.max.Load(),
		Buckets: make(map[int]int64),
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			d.Buckets[i] = n
			d.Count += n
		}
	}
	if d.Count == 0 {
		return nil
	}
	return d
}

// Merge folds o into d. Bucket sets may be disjoint or partially
// overlapping — absent buckets are zeros.
func (d *HistData) Merge(o *HistData) {
	if d == nil || o == nil {
		return
	}
	d.Count += o.Count
	d.SumNS += o.SumNS
	if o.MaxNS > d.MaxNS {
		d.MaxNS = o.MaxNS
	}
	if d.Buckets == nil && len(o.Buckets) > 0 {
		d.Buckets = make(map[int]int64, len(o.Buckets))
	}
	for i, n := range o.Buckets {
		d.Buckets[i] += n
	}
}

// Quantile estimates the q-quantile: bucket midpoint, clamped to the
// maximum.
func (d *HistData) Quantile(q float64) time.Duration {
	if d == nil || d.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(q * float64(d.Count))
	if rank < 1 {
		rank = 1
	}
	idx := make([]int, 0, len(d.Buckets))
	for i := range d.Buckets {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	var cum int64
	for _, i := range idx {
		cum += d.Buckets[i]
		if cum >= rank {
			return time.Duration(min(bucketMid(i), d.MaxNS))
		}
	}
	return time.Duration(d.MaxNS)
}

// Mean returns the average observation.
func (d *HistData) Mean() time.Duration {
	if d == nil || d.Count == 0 {
		return 0
	}
	return time.Duration(d.SumNS / d.Count)
}

// Merge folds o's observations into h. Histograms from different recorders
// (or different runs) can be combined before querying percentiles.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	h.sum.Add(o.sum.Load())
	for {
		cur := h.max.Load()
		om := o.max.Load()
		if om <= cur || h.max.CompareAndSwap(cur, om) {
			break
		}
	}
	for i := range h.buckets {
		if n := o.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
}
