package main

import "encoding/json"

// runSeconds is the window the driver measures for, BENCHMARK.json's
// run_seconds: 30 slices.
const runSeconds = 15

// benchmarkJSON renders BENCHMARK.json from the tables below, so the file at
// the root of the repository and the program cannot disagree (a test
// compares them).
func benchmarkJSON() []byte {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		b := d.bound
		doc.EndToEnd = append(doc.EndToEnd, metric{d.name, d.unit, d.better, &b})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, metric{d.name, d.unit, d.better, nil})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the tables hold only strings and finite numbers
	}
	return append(out, '\n')
}

// metricDef names one metric of BENCHMARK.json. bound is the share of the
// parent's median by which an end-to-end metric may worsen; layer metrics
// carry none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd is what a user of the facility sees, the same five on every
// workload. "op" is the workload's own operation — a 4 KiB read on the three
// read/write workloads, a whole small-file life cycle on meta_churn, a
// commit on txn_commit; the other classes' latencies are layer metrics.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// latencyClasses are the op classes any workload times; every one gets a
// p50 and a p99 layer metric, tailClasses a p95 as well.
var latencyClasses = []string{"read", "write", "cycle", "create", "open", "delete", "commit"}

var tailClasses = map[string]bool{"read": true, "write": true, "cycle": true, "commit": true}

// perLayer lists the layer metrics; a workload that does not exercise a
// layer reports 0 for it.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	us := func(names ...string) (out []metricDef) {
		for _, n := range names {
			out = append(out, metricDef{name: n, unit: "us", better: "lower"})
		}
		return
	}
	defs := us(
		// Span self times, per op.
		"agent.self_us", "ccache.client.self_us", "router_rpc.self_us",
		"cluster.service.self_us", "cluster.service.read_self_us", "cluster.service.write_self_us",
		"ccache.server.self_us", "rpcfs.incl_us", "rpcfs.self_us",
		"replication.ship_us",
		// Direct-call probes, per call.
		"fileservice.read_us", "fileservice.write_us", "fileservice.create_us", "fileservice.delete_us",
		"naming.register_us", "naming.resolve_us", "naming.unregister_us",
		"txn.begin_us", "txn.open_us", "txn.pread_us", "txn.pwrite_us", "txn.end_us", "txn.barrier_us",
	)
	defs = append(defs,
		metricDef{name: "ccache.client.hit_ratio", unit: "ratio", better: "higher"},
		metricDef{name: "ccache.client.inner_calls_per_op", unit: "count", better: "lower"},
		metricDef{name: "replication.recs_per_ship", unit: "count", better: "higher"},
		metricDef{name: "replication.ships_per_write", unit: "count", better: "lower"},
		metricDef{name: "cache.server_hit_ratio", unit: "ratio", better: "higher"},
		metricDef{name: "diskservice.track_hit_ratio", unit: "ratio", better: "higher"},
		metricDef{name: "device.refs_per_op", unit: "count", better: "lower"},
		metricDef{name: "device.bytes_per_op", unit: "B", better: "lower"},
		metricDef{name: "stable.writes_per_op", unit: "count", better: "lower"},
		metricDef{name: "wal.syncs_per_commit", unit: "count", better: "lower"},
		metricDef{name: "txn.group.waits_per_commit", unit: "count", better: "lower"},
		metricDef{name: "lock.waits_per_commit", unit: "count", better: "lower"},
		metricDef{name: "rpc.requests_per_op", unit: "count", better: "lower"},
		metricDef{name: "rpc.retries", unit: "count", better: "lower"},
		metricDef{name: "rpc.duplicates", unit: "count", better: "lower"},
		metricDef{name: "server.readat_requests", unit: "count", better: "lower"},
		metricDef{name: "go.alloc_bytes_per_op", unit: "B", better: "lower"},
		metricDef{name: "go.allocs_per_op", unit: "count", better: "lower"},
		metricDef{name: "go.gc_pause_us_per_s", unit: "us/s", better: "lower"},
		metricDef{name: "go.heap_mb", unit: "MiB", better: "lower"},
	)
	for _, c := range latencyClasses {
		defs = append(defs, us(c+"_p50_us")...)
		if tailClasses[c] {
			defs = append(defs, us(c+"_p95_us")...)
		}
		defs = append(defs, us(c+"_p99_us")...)
	}
	// Validity gauges of the measurement itself.
	return append(defs,
		metricDef{name: "ops_per_s_raw", unit: "1/s", better: "higher"},
		metricDef{name: "ops_per_s_mean", unit: "1/s", better: "higher"},
		metricDef{name: "bench.quiet_vs_mean_pct", unit: "%", better: "lower"},
		metricDef{name: "bench.drift_pct", unit: "%", better: "lower"},
		metricDef{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
		metricDef{name: "bench.trace_sum_err_pct", unit: "%", better: "lower"},
		metricDef{name: "host.speed_pct", unit: "%", better: "higher"},
		metricDef{name: "host.steal_pct", unit: "%", better: "lower"},
	)
}
