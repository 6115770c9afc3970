package main

import "math/bits"

// Log-linear latency histogram. Values (nanoseconds) below histSub are
// counted exactly; above that every power of two is cut into histSub equal
// buckets, so a bucket is at most 1/64 of its lower bound wide and the
// midpoint a quantile reports is within 0.8 % of every sample in it. The
// size is fixed and Record never allocates.
const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histMaxBits = 42 // 2^42 ns ≈ 73 min; larger samples land in the last bucket
	histBuckets = (histMaxBits - histSubBits + 1) * histSub
)

type hist struct {
	n      uint64
	sum    uint64
	counts [histBuckets]uint32
}

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
func bucketMid(i int) float64 {
	if i < 2*histSub {
		return float64(i)
	}
	e := uint(i/histSub - 1)
	low := uint64(i%histSub+histSub) << e
	return float64(low) + float64(uint64(1)<<e)/2
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.n++
	h.sum += uint64(ns)
	h.counts[bucketOf(uint64(ns))]++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	h.sum += o.sum
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// quantile returns the q-quantile in nanoseconds, 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for i, c := range h.counts {
		seen += uint64(c)
		if seen >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(histBuckets - 1)
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}
