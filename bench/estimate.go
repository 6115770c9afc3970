package main

import "sort"

// The measured window is cut into slices. A neighbour stealing the CPU only
// ever slows a slice down, while a regression in the code slows all of them,
// so the end-to-end figures are taken from the quiet end of the slice
// distribution: rates are the 90th percentile across slices, times (latency
// percentiles, CPU per op) the 10th. The whole-window mean and p99 are
// reported beside them as layer metrics, so a periodic stall cannot hide.
const (
	quietRateQ = 0.90
	quietTimeQ = 0.10
	// A p95 is read off at least 200 samples, so that ten lie beyond it; a
	// median off at least 100.
	minTailSamples   = 200
	minMedianSamples = 100
)

// slice is one sampler interval: what completed in it, what it cost, and one
// histogram per op class.
type slice struct {
	seconds float64
	ops     uint64
	cpuNS   int64
	hists   []hist
}

// quantileOf returns the q-quantile of values by linear interpolation
// between order statistics; 0 for no values.
func quantileOf(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quietRate is the quiet-slice estimate of ops per second.
func quietRate(slices []slice) float64 {
	rates := make([]float64, 0, len(slices))
	for i := range slices {
		if slices[i].seconds > 0 {
			rates = append(rates, float64(slices[i].ops)/slices[i].seconds)
		}
	}
	return quantileOf(rates, quietRateQ)
}

// quietCPU is the quiet-slice estimate of CPU nanoseconds per op.
func quietCPU(slices []slice) float64 {
	costs := make([]float64, 0, len(slices))
	for i := range slices {
		if slices[i].ops > 0 {
			costs = append(costs, float64(slices[i].cpuNS)/float64(slices[i].ops))
		}
	}
	return quantileOf(costs, quietTimeQ)
}

// quietLatency is the quiet-slice estimate of the q-quantile of one op class,
// in nanoseconds. Consecutive slices are pooled until they hold minSamples of
// the class, so a slow workload is judged on fewer, longer stretches instead
// of on quantiles of a handful of samples; the samples left over at the end
// join the last pool.
func quietLatency(slices []slice, class int, q float64, minSamples uint64) float64 {
	var vals []float64
	pool := new(hist)
	for i := range slices {
		pool.merge(&slices[i].hists[class])
		if pool.n >= minSamples && pool.n > 0 {
			vals = append(vals, pool.quantile(q))
			pool = new(hist)
		}
	}
	if len(vals) == 0 {
		return pool.quantile(q)
	}
	return quantileOf(vals, quietTimeQ)
}

// windowHist merges one class's histograms over all slices.
func windowHist(slices []slice, class int) *hist {
	total := new(hist)
	for i := range slices {
		total.merge(&slices[i].hists[class])
	}
	return total
}

// meanRate is the whole-window ops per second.
func meanRate(slices []slice) float64 {
	var ops uint64
	var secs float64
	for i := range slices {
		ops += slices[i].ops
		secs += slices[i].seconds
	}
	if secs == 0 {
		return 0
	}
	return float64(ops) / secs
}
