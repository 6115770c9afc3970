package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// options are one run's settings; BENCHMARK.json pins the ones the driver
// passes.
type options struct {
	seed    int64
	seconds float64
	trace   int // 0: end-to-end metrics only; 1: layer metrics only; 2: both
	quick   bool
	slices  bool // print the window slice by slice
	outDir  string
}

const (
	traceSeconds = 5.0
	setupReps    = 3
)

// result is what one workload's run reports.
type result struct {
	workload  string
	attempted uint64
	failed    uint64
	problems  []string // why the run is not correct; empty when it is
	e2e       map[string]float64
	layers    map[string]float64
}

func (r *result) correct() bool { return len(r.problems) == 0 }

func (r *result) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// setUp builds the workload's rig from nothing — stack, connections, data
// set, fixed-count warm-up, one collection — and says how long that took.
func setUp(spec *workloadSpec, e *env, warmOps int) (*rig, float64, error) {
	t0 := time.Now()
	rg, err := spec.build(e)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", spec.name, err)
	}
	if err := rg.warm(warmOps); err != nil {
		rg.close()
		return nil, 0, fmt.Errorf("%s: %w", spec.name, err)
	}
	primeHeap()
	runtime.GC()
	return rg, time.Since(t0).Seconds(), nil
}

// primeHeap fills the heap with garbage of the benchmark's own until the
// collector has run a cycle by itself. A rig keeps 0.8 to 1.6 GB of simulated
// disks live, so the collector lets the heap grow to twice that before its
// next cycle, and the first growth into memory the process has never touched
// costs a page fault per 4 KiB — seconds of a window at a fraction of the
// steady rate, long after a fixed count of warm-up ops has ended. Touching
// that memory is part of setting up; afterwards the pages stay with the
// process and every later cycle reuses them.
func primeHeap() {
	cycles := func() uint64 {
		s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
	for start := cycles(); cycles() == start; {
		for i := 0; i < 64; i++ {
			b := make([]byte, 1<<20)
			for j := 0; j < len(b); j += 4096 {
				b[j] = 1 // memory fresh from the OS is not cleared by make
			}
			primeSink = b
		}
	}
	primeSink = nil
}

var primeSink []byte

// runWorkload measures one workload in this process.
func runWorkload(spec *workloadSpec, o options) (*result, error) {
	res := &result{workload: spec.name, e2e: map[string]float64{}, layers: map[string]float64{}}
	ring := 1 // never written with tracing off, and kept out of the heap the window runs in
	if o.trace != 0 {
		ring = ringSpans
	}
	e := &env{tr: newTracer(ring), seed: o.seed}
	for i := 0; i < numClients; i++ {
		k, err := newRefKernel(uint64(i + 1))
		if err != nil {
			return nil, fmt.Errorf("reference kernel buffer: %w", err)
		}
		defer k.close()
		e.kernels = append(e.kernels, k)
	}
	reps, warmOps, traceFor := setupReps, spec.warmOps, traceSeconds
	if o.trace == 1 {
		reps = 1 // set-up time is an end-to-end metric; the layer run needs one rig
	}
	if o.quick {
		reps, warmOps, traceFor = 1, spec.warmOps/10, 0.5
	}

	// Set up from scratch several times; the last rig is the one measured.
	var rg *rig
	var setups []float64
	for i := 0; i < reps; i++ {
		if rg != nil {
			rg.close()
			rg = nil
			runtime.GC()
		}
		var took float64
		var err error
		if rg, took, err = setUp(spec, e, warmOps); err != nil {
			return nil, err
		}
		setups = append(setups, took)
	}
	defer func() { rg.close() }()
	sort.Float64s(setups)
	setup := setups[len(setups)/2]
	if setup < 1 && !o.quick {
		fmt.Fprintf(os.Stderr, "bench: %s: set-up took %.3f s, under the 1 s floor\n", spec.name, setup)
	}

	win := rg.measure(time.Duration(o.seconds * float64(time.Second)))
	res.attempted, res.failed = win.attempted, win.failed
	if o.slices {
		printSlices(win.slices)
		fmt.Fprintf(os.Stderr, "machine speed %.1f %% of the reference box\n", machineSpeed(win.kernelNS)*100)
	}
	if win.firstErr != nil {
		res.problemf("%d of %d ops failed, first: %v", win.failed, win.attempted, win.firstErr)
	}
	rg.guard(res, win, o.quick)

	if o.trace != 1 {
		// Reference-box figures: a machine at half speed halves the rate and
		// doubles the times, so the rate is divided by the speed and the
		// times multiplied by it. The layer metrics below stay as measured.
		speed := machineSpeed(win.kernelNS)
		res.e2e["ops_per_s"] = quietRate(win.slices) / speed
		res.e2e["cpu_us_per_op"] = quietCPU(win.slices) / 1e3 * speed
		res.e2e["op_p50_us"] = quietLatency(win.slices, 0, 0.50, minMedianSamples) / 1e3 * speed
		res.e2e["setup_s"] = setup * speed // the set-ups ended seconds before the window began
	}
	var rpcfsCalls [numKinds]float64
	if o.trace != 0 {
		for _, d := range perLayer {
			res.layers[d.name] = 0
		}
		rg.windowLayers(res, win)

		// The traced pass: same rig, same loops, wrappers recording.
		e.tr.reset()
		e.tr.on.Store(true)
		tw := rg.measure(time.Duration(traceFor * float64(time.Second)))
		e.tr.on.Store(false)
		res.attempted += tw.attempted
		res.failed += tw.failed
		if tw.firstErr != nil {
			res.problemf("traced pass: %d of %d ops failed, first: %v", tw.failed, tw.attempted, tw.firstErr)
		}
		spans, share := e.tr.snapshot()
		if err := writeTrace(o.outDir, spec.name, spans); err != nil {
			return nil, err
		}
		rpcfsCalls = rg.tracedLayers(res, win, tw, analyze(spans), share)
	}
	if rg.verify != nil {
		if err := rg.verify(); err != nil {
			res.problemf("data check after the window: %v", err)
		}
	}
	if o.trace != 0 && rg.probe != nil {
		if err := rg.probe(res.layers); err != nil {
			res.problemf("probe: %v", err)
		}
		rpcfsSelf(res.layers, rpcfsCalls)
	}
	return res, nil
}

// classIndex finds an op class of the rig by name.
func (r *rig) classIndex(name string) int {
	for i, c := range r.classes {
		if c == name {
			return i
		}
	}
	return -1
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hitRatio is hits / (hits + misses) of two counters of the window.
func hitRatio(w *windowResult, hits, misses string) float64 {
	return ratio(w.grew[hits], w.grew[hits]+w.grew[misses])
}

// guard turns the run's validity conditions into problems: no retries or
// duplicates on the wire, and per rig shape the conditions that make the
// workload what its name says.
func (r *rig) guard(res *result, w *windowResult, quick bool) {
	g := w.grew
	if g["client.retries"] != 0 || g["rpc.duplicates"] != 0 {
		res.problemf("%.0f rpc retries and %.0f duplicates in the window", g["client.retries"], g["rpc.duplicates"])
	}
	cached := len(r.clients) > 0 && r.clients[0].cc != nil
	if cached {
		// A wrapper that lets the agent's type assertion reach the router
		// sends every read around the client cache. Through the cache, the
		// only reads the server sees are refetches after a lease lapsed (see
		// README.md, standing anomalies): a handful per lease term.
		if g["server.readats"]*1000 > w.done() {
			res.problemf("%.0f fs.readAt requests reached the server over %.0f reads that must be client-cache hits", g["server.readats"], w.done())
		}
		if g["ccache.hits"]+g["ccache.misses"] != w.done() || g["ccache.misses"]*1000 > w.done() {
			res.problemf("ccache.hits grew by %.0f and ccache.misses by %.0f over %.0f completed reads", g["ccache.hits"], g["ccache.misses"], w.done())
		}
	}
	replicated := len(r.nodes) > 0 && r.nodes[0].ship != nil
	if replicated && g["ship.count"] == 0 {
		res.problemf("replicated rig shipped nothing")
	}
	if quick || len(r.nodes) == 0 || cached {
		return
	}
	// Sizing of the two read/write workloads against the server block cache.
	hit := hitRatio(w, "fs.cache.hit", "fs.cache.miss")
	switch {
	case replicated && hit < 0.98:
		res.problemf("server cache hit ratio %.3f on the in-cache workload, want >= 0.98", hit)
	case r.classIndex("write") >= 0 && !replicated && hit > 0.2:
		res.problemf("server cache hit ratio %.3f on the out-of-cache workload, want <= 0.2", hit)
	}
}

// windowLayers fills the layer metrics that come from the untraced window:
// counter growth, runtime figures, per-class latencies, validity gauges.
func (r *rig) windowLayers(res *result, w *windowResult) {
	L, g, ops := res.layers, w.grew, w.done()
	L["cache.server_hit_ratio"] = hitRatio(w, "fs.cache.hit", "fs.cache.miss")
	L["diskservice.track_hit_ratio"] = hitRatio(w, "disk.track_cache.hit", "disk.track_cache.miss")
	L["device.refs_per_op"] = ratio(g["disk.references"], ops)
	L["device.bytes_per_op"] = ratio(g["disk.bytes_read"]+g["disk.bytes_written"], ops)
	L["stable.writes_per_op"] = ratio(g["stable.writes"], ops)
	commits := g["txn.committed"]
	L["wal.syncs_per_commit"] = ratio(g["wal.syncs"], commits)
	L["txn.group.waits_per_commit"] = ratio(g["txn.group.waits"], commits)
	L["lock.waits_per_commit"] = ratio(g["lock.waits"], commits)
	L["txn.barrier_us"] = ratio(g["barrier.ns"]/1e3, commits)
	L["rpc.requests_per_op"] = ratio(g["rpc.requests"], ops)
	L["rpc.retries"] = g["client.retries"]
	L["rpc.duplicates"] = g["rpc.duplicates"]
	L["server.readat_requests"] = g["server.readats"]
	L["ccache.client.hit_ratio"] = hitRatio(w, "ccache.hits", "ccache.misses")
	L["ccache.client.inner_calls_per_op"] = ratio(g["ccache.inner_calls"], ops)
	L["replication.recs_per_ship"] = ratio(g["ship.recs"], g["ship.count"])
	if c := r.classIndex("write"); c >= 0 {
		L["replication.ships_per_write"] = ratio(g["ship.count"], float64(windowHist(w.slices, c).n))
	}
	L["go.alloc_bytes_per_op"] = ratio(g["go.alloc_bytes"], ops)
	L["go.allocs_per_op"] = ratio(g["go.alloc_objs"], ops)
	L["go.gc_pause_us_per_s"] = ratio(g["go.gc_pause_ns"]/1e3, w.seconds())
	L["go.heap_mb"] = w.heapMB
	for c, name := range r.classes {
		L[name+"_p50_us"] = quietLatency(w.slices, c, 0.50, minMedianSamples) / 1e3
		if tailClasses[name] {
			L[name+"_p95_us"] = quietLatency(w.slices, c, 0.95, minTailSamples) / 1e3
		}
		L[name+"_p99_us"] = windowHist(w.slices, c).quantile(0.99) / 1e3
	}
	quiet, mean := quietRate(w.slices), meanRate(w.slices)
	L["ops_per_s_raw"] = quiet
	L["ops_per_s_mean"] = mean
	L["bench.quiet_vs_mean_pct"] = (ratio(quiet, mean) - 1) * 100
	if third := len(w.slices) / 3; third > 0 {
		first, last := quietRate(w.slices[:third]), quietRate(w.slices[len(w.slices)-third:])
		L["bench.drift_pct"] = math.Abs(ratio(last, first)-1) * 100
	}
	L["host.speed_pct"] = machineSpeed(w.kernelNS) * 100
	L["host.steal_pct"] = ratio(g["host.steal_ticks"], g["host.total_ticks"]) * 100
}

// tracedLayers fills the layer metrics that come from the traced pass: each
// interposed layer's self time per completed op, and what tracing cost. It
// returns how many rpcfs spans of each kind one op made.
func (r *rig) tracedLayers(res *result, win, tw *windowResult, st *traceStats, share float64) (rpcfsCalls [numKinds]float64) {
	L := res.layers
	// The ring keeps the newest spans; st covers that share of the pass's ops.
	ops := tw.done() * share
	perOp := func(ns int64) float64 { return ratio(float64(ns)/1e3, ops) }
	L["agent.self_us"] = perOp(st.layerTotal(layerAgent).selfNS)
	L["ccache.client.self_us"] = perOp(st.layerTotal(layerCCacheClient).selfNS)
	L["router_rpc.self_us"] = perOp(st.layerTotal(layerRouterRPC).selfNS)
	L["cluster.service.self_us"] = perOp(st.layerTotal(layerClusterService).selfNS)
	L["ccache.server.self_us"] = perOp(st.layerTotal(layerCCacheServer).selfNS)
	L["rpcfs.incl_us"] = perOp(st.layerTotal(layerRPCFS).inclNS)
	rd, wr := st[layerClusterService][kindRead], st[layerClusterService][kindWrite]
	L["cluster.service.read_self_us"] = ratio(float64(rd.selfNS)/1e3, float64(rd.count))
	L["cluster.service.write_self_us"] = ratio(float64(wr.selfNS)/1e3, float64(wr.count))
	L["replication.ship_us"] = ratio(tw.grew["ship.ns"]/1e3, tw.grew["ship.timed"])
	L["bench.trace_overhead_pct"] = (1 - ratio(quietRate(tw.slices), quietRate(win.slices))) * 100

	// The interposed self times and rpcfs's inclusive time must add up to
	// what the clients saw — the agent spans are the ops' own latencies — or
	// a span lost its parent and its time is counted twice.
	var selfNS int64
	for l := 0; l < numLayers; l++ {
		selfNS += st.layerTotal(l).selfNS
	}
	L["bench.trace_sum_err_pct"] = math.Abs(ratio(float64(selfNS), float64(st.layerTotal(layerAgent).inclNS))-1) * 100

	for k := range rpcfsCalls {
		rpcfsCalls[k] = ratio(float64(st[layerRPCFS][k].count), ops)
	}
	return rpcfsCalls
}

// rpcfsSelf is rpcfs's inclusive time per op less the probed cost of the
// calls it made below itself.
func rpcfsSelf(L map[string]float64, calls [numKinds]float64) {
	below := calls[kindRead]*L["fileservice.read_us"] +
		calls[kindWrite]*L["fileservice.write_us"] +
		calls[kindCreate]*(L["fileservice.create_us"]+L["naming.register_us"]) +
		calls[kindDelete]*(L["fileservice.delete_us"]+L["naming.unregister_us"]) +
		calls[kindResolve]*L["naming.resolve_us"] +
		calls[kindUnregister]*L["naming.unregister_us"]
	if L["rpcfs.incl_us"] > 0 {
		L["rpcfs.self_us"] = L["rpcfs.incl_us"] - below
	}
}

// printSlices shows the window slice by slice, which is where a periodic
// stall or a noisy neighbour shows.
func printSlices(slices []slice) {
	fmt.Fprintf(os.Stderr, "%5s %8s %12s %12s %12s\n", "slice", "seconds", "ops/s", "cpu us/op", "op p50 us")
	for i := range slices {
		sl := &slices[i]
		fmt.Fprintf(os.Stderr, "%5d %8.3f %12.1f %12.3f %12.3f\n", i, sl.seconds,
			ratio(float64(sl.ops), sl.seconds), ratio(float64(sl.cpuNS)/1e3, float64(sl.ops)), sl.hists[0].quantile(0.5)/1e3)
	}
}
