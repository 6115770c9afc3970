package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/ccache"
	"repro/internal/core"
	"repro/internal/fit"
)

func TestHistBucketError(t *testing.T) {
	for v := uint64(1); v < 1<<41; v = v*33/32 + 1 {
		got := bucketMid(bucketOf(v))
		if e := math.Abs(got-float64(v)) / float64(v); e > 0.02 {
			t.Fatalf("value %d reported as %.1f: %.2f %% off", v, got, e*100)
		}
	}
	if i := bucketOf(1 << 60); i != histBuckets-1 {
		t.Fatalf("oversized sample landed in bucket %d, want the last, %d", i, histBuckets-1)
	}
}

func TestHistQuantileAndMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var a, b, all hist
	var samples []float64
	for i := 0; i < 20000; i++ {
		v := int64(math.Exp(rng.Float64()*12) * 100) // 100 ns .. 16 ms, log-uniform
		samples = append(samples, float64(v))
		all.record(v)
		if i%2 == 0 {
			a.record(v)
		} else {
			b.record(v)
		}
	}
	a.merge(&b)
	if a != all {
		t.Fatal("merging two halves differs from recording everything in one histogram")
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		want := samples[int(q*float64(len(samples)))-1]
		if got := all.quantile(q); math.Abs(got-want)/want > 0.02 {
			t.Errorf("q%.2f = %.0f, exact %.0f", q, got, want)
		}
	}
	if (&hist{}).quantile(0.5) != 0 {
		t.Error("empty histogram must report 0")
	}
}

// syntheticSlices is a steady 1000 ops/s at 100 us CPU and 50 us latency per
// op, with every fifth slice slowed as a stolen CPU would slow it.
func syntheticSlices() []slice {
	slices := make([]slice, 30)
	for i := range slices {
		slow := int64(1)
		if i%5 == 2 {
			slow = 2
		}
		ops := 500 / slow
		sl := slice{seconds: 0.5, ops: uint64(ops), cpuNS: ops * 100_000 * slow, hists: make([]hist, 1)}
		for k := int64(0); k < ops; k++ {
			sl.hists[0].record(50_000*slow + k%7)
		}
		slices[i] = sl
	}
	return slices
}

func TestQuietSliceEstimators(t *testing.T) {
	slices := syntheticSlices()
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("%s = %.1f, want %.1f", name, got, want)
		}
	}
	near("quiet rate", quietRate(slices), 1000)
	near("quiet CPU per op", quietCPU(slices), 100_000)
	near("quiet p50", quietLatency(slices, 0, 0.50, minMedianSamples), 50_000)
	near("quiet p95", quietLatency(slices, 0, 0.95, minTailSamples), 50_000)
	near("mean rate", meanRate(slices), 900) // the whole-window mean does see the slow slices
	// A class too sparse for any pool still gets the window's own quantile.
	sparse := []slice{{seconds: 0.5, ops: 3, hists: make([]hist, 1)}}
	sparse[0].hists[0].record(1000)
	near("sparse p95", quietLatency(sparse, 0, 0.95, minTailSamples), 1000)
}

func TestQuantileOf(t *testing.T) {
	v := []float64{4, 1, 3, 2, 5}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 1: 5, 0.1: 1.4, 0.9: 4.6} {
		if got := quantileOf(v, q); math.Abs(got-want) > 1e-9 {
			t.Errorf("quantileOf(%.1f) = %v, want %v", q, got, want)
		}
	}
	if quantileOf(nil, 0.5) != 0 {
		t.Error("no values must give 0")
	}
}

func TestSpanParentingAndSelfTime(t *testing.T) {
	// Client 1: one read through every layer. Client 2, overlapping in time:
	// one agent call that makes two round trips (as Create does).
	spans := []span{
		{40, 60, layerRPCFS, kindRead, 1},
		{35, 65, layerCCacheServer, kindRead, 1},
		{30, 70, layerClusterService, kindRead, 1},
		{20, 80, layerRouterRPC, kindRead, 1},
		{10, 90, layerCCacheClient, kindRead, 1},
		{0, 100, layerAgent, kindRead, 1},

		{15, 25, layerClusterService, kindCreate, 2},
		{10, 30, layerRouterRPC, kindCreate, 2},
		{45, 50, layerClusterService, kindOpen, 2},
		{40, 60, layerRouterRPC, kindOpen, 2},
		{5, 65, layerAgent, kindCreate, 2},
	}
	st := analyze(spans)
	want := []struct {
		layer, kind int
		count       uint64
		incl, self  int64
	}{
		{layerAgent, kindRead, 1, 100, 20},
		{layerCCacheClient, kindRead, 1, 80, 20},
		{layerRouterRPC, kindRead, 1, 60, 20},
		{layerClusterService, kindRead, 1, 40, 10},
		{layerCCacheServer, kindRead, 1, 30, 10},
		{layerRPCFS, kindRead, 1, 20, 20},
		{layerAgent, kindCreate, 1, 60, 20},
		{layerRouterRPC, kindCreate, 1, 20, 10},
		{layerRouterRPC, kindOpen, 1, 20, 15},
		{layerClusterService, kindCreate, 1, 10, 10},
		{layerClusterService, kindOpen, 1, 5, 5},
	}
	for _, w := range want {
		got := st[w.layer][w.kind]
		if got.count != w.count || got.inclNS != w.incl || got.selfNS != w.self {
			t.Errorf("%s/%s: count %d incl %d self %d, want %d %d %d", layerNames[w.layer], kindNames[w.kind],
				got.count, got.inclNS, got.selfNS, w.count, w.incl, w.self)
		}
	}
	// Self times of a nest add up to its outermost span.
	var sum int64
	for l := 0; l < numLayers; l++ {
		sum += st[l][kindRead].selfNS
	}
	if sum != 100 {
		t.Errorf("self times of client 1's read sum to %d, want the agent span's 100", sum)
	}
}

func TestTracerRingDropsPartialOps(t *testing.T) {
	tr := newTracer(8)
	// Three ops of three spans each, children first: nine spans into eight
	// slots overwrite the first op's first child.
	for op := int64(0); op < 3; op++ {
		base := op * 100
		tr.add(layerRPCFS, kindRead, 1, base+2, base+3)
		tr.add(layerRouterRPC, kindRead, 1, base+1, base+4)
		tr.add(layerAgent, kindRead, 1, base, base+5)
	}
	got, share := tr.snapshot()
	if len(got) != 6 || share != 6.0/9 {
		t.Fatalf("snapshot kept %d spans (share %v), want the 6 of the two complete ops out of 9", len(got), share)
	}
	st := analyze(got)
	if a := st[layerAgent][kindRead]; a.count != 2 || a.selfNS != 2*2 {
		t.Errorf("agent: count %d self %d, want 2 and 4", a.count, a.selfNS)
	}
	tr.reset()
	tr.add(layerAgent, kindRead, 1, 0, 1)
	if got, share := tr.snapshot(); len(got) != 1 || share != 1 {
		t.Errorf("after reset the snapshot holds %d spans (share %v), want 1", len(got), share)
	}
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, benchmarkJSON()) {
		t.Fatal("BENCHMARK.json differs from `bash bench/run.sh -describe`; regenerate it")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric %s is defined twice", d.name)
		}
		seen[d.name] = true
	}
	if last := endToEnd[len(endToEnd)-1]; last.name != "setup_s" {
		t.Errorf("setup_s must be an end-to-end metric")
	}
	for _, d := range endToEnd {
		if d.bound > endToEnd[len(endToEnd)-1].bound {
			t.Errorf("%s has a larger bound than setup_s", d.name)
		}
	}
}

// TestCacheBypassGuard feeds the guard the window a bypassed client cache
// produces — every read reaches the server, none is a hit — and a clean one.
func TestCacheBypassGuard(t *testing.T) {
	r := &rig{clients: []*client{{cc: new(ccache.Client)}}, classes: []string{"read"}}
	w := &windowResult{attempted: 1000, grew: counters{"server.readats": 1000}}
	res := &result{}
	r.guard(res, w, false)
	if len(res.problems) != 2 {
		t.Errorf("bypassed cache: problems %q, want one for the server reads and one for the hits", res.problems)
	}
	w.grew = counters{"ccache.hits": 1000}
	res = &result{}
	r.guard(res, w, false)
	if !res.correct() {
		t.Errorf("all-hit window flagged: %q", res.problems)
	}
}

// TestQuickSmoke boots all five rigs for a one-second window and a short
// traced pass, with every check on, and parses what the run prints.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots five rigs")
	}
	for _, w := range workloads {
		o := options{seed: 3, seconds: 1, trace: 2, quick: true, outDir: t.TempDir()}
		res, err := runWorkload(findWorkload(w.name), o)
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct() {
			t.Errorf("%s: %q", w.name, res.problems)
		}
		var out bytes.Buffer
		printResult(&out, res, o)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var parsed struct {
			Correct   *bool
			Attempted *uint64
			Failed    *uint64
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&parsed); err != nil {
			t.Fatalf("%s: last line: %v", w.name, err)
		}
		if parsed.Correct == nil || parsed.Attempted == nil || parsed.Failed == nil || *parsed.Attempted == 0 || *parsed.Failed != 0 {
			t.Errorf("%s: result object %s", w.name, lines[len(lines)-1])
		}
		for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
			m, ok := parsed.Metrics[d.name]
			if !ok || m.Value == nil || m.Unit != d.unit {
				t.Errorf("%s: metric %s missing or without its unit %q", w.name, d.name, d.unit)
			}
		}
		if len(parsed.Metrics) != len(endToEnd)+len(perLayer) {
			t.Errorf("%s: %d metrics printed, %d defined", w.name, len(parsed.Metrics), len(endToEnd)+len(perLayer))
		}
		for _, d := range endToEnd {
			if v := res.e2e[d.name]; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must be above 0", w.name, d.name, v)
			}
		}
		if _, err := os.Stat(o.outDir + "/" + w.name + ".trace.json"); err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
	}
}

// TestDelayedWriteNeighbourMiss is the defect that keeps cold_rw's files
// write-through, cut down to one caller: a file larger than the server block
// cache, random block writes and reads, every read checked against the last
// write. It skips while the defect stands and passes once it is fixed; then
// cold_rw can return to default (delayed-write) files.
func TestDelayedWriteNeighbourMiss(t *testing.T) {
	fac, err := core.New(core.Config{Disks: 1, Geometry: rhodosdGeometry})
	if err != nil {
		t.Fatal(err)
	}
	defer fac.Close()
	const size = 4 << 20 // twice the default 256-block cache
	id, err := fac.Files.Create(fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	for off := 0; off < size; off += ioUnit {
		fill(buf[off:off+ioUnit], 1, uint64(off), 0)
	}
	if _, err := fac.Files.WriteAt(id, 0, buf); err != nil {
		t.Fatal(err)
	}
	gens := make([]uint64, size/ioUnit)
	rng := rand.New(rand.NewSource(1))
	unit := make([]byte, ioUnit)
	stale := 0
	for i := 0; i < 20000; i++ {
		u := rng.Intn(len(gens))
		off := int64(u) * ioUnit
		if rng.Float64() < readShare {
			data, err := fac.Files.ReadAt(id, off, ioUnit)
			if err != nil {
				t.Fatal(err)
			}
			if check(data, ioUnit, 1, uint64(off), gens[u]) != nil {
				stale++
			}
			continue
		}
		gens[u]++
		fill(unit, 1, uint64(off), gens[u])
		if _, err := fac.Files.WriteAt(id, off, unit); err != nil {
			t.Fatal(err)
		}
	}
	if stale > 0 {
		t.Skipf("known defect: %d of ~14000 reads returned a block older than the last acknowledged write", stale)
	}
}
