// Command rhodos-bench runs the reproduction experiments (E1–E21 and the
// paper's Table 1) and prints their result tables — the data recorded in
// EXPERIMENTS.md. E19 (group commit), E20 (transport load) and E21 (scale-
// out) are wall-clock but fast, so they stay in the -smoke pass; only E16
// is dropped there.
//
// Usage:
//
//	rhodos-bench                  # run everything
//	rhodos-bench -only E8         # run one experiment (comma-separated list)
//	rhodos-bench -smoke           # fast pass: virtual-time experiments only
//	rhodos-bench -list            # list experiments
//	rhodos-bench -json out.json   # also write results as JSON
//	rhodos-bench -load -clients 64
//	                              # one closed-loop load cell (E20's engine)
//	                              # with explicit knobs
//	rhodos-bench -load -rate 2000 -for 2s
//	                              # open loop: fixed 2000 ops/sec arrival
//	                              # schedule, latency includes queueing
//	rhodos-bench -load -addrs 127.0.0.1:7423,127.0.0.1:7424,127.0.0.1:7425
//	                              # closed loop against an already-running
//	                              # multi-shard cluster (E21's smoke cell)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/workload"
)

// jsonTable is the machine-readable form of one experiment's table.
type jsonTable struct {
	ID        string     `json:"id"`
	Title     string     `json:"title"`
	Claim     string     `json:"claim,omitempty"`
	Columns   []string   `json:"columns"`
	Rows      [][]string `json:"rows"`
	Notes     []string   `json:"notes,omitempty"`
	ElapsedMS int64      `json:"elapsed_ms"`
	// Profile carries the per-layer latency breakdown for experiments
	// that run traced (E16).
	Profile *obs.Profile `json:"profile,omitempty"`
}

func main() {
	os.Exit(run())
}

func run() int {
	only := flag.String("only", "", "comma-separated experiment IDs (e.g. E1,E8)")
	smoke := flag.Bool("smoke", false, "fast pass: skip the wall-clock experiments (E16)")
	list := flag.Bool("list", false, "list experiments and exit")
	jsonOut := flag.String("json", "", "write results as JSON to this file ('-' for stdout)")
	load := flag.Bool("load", false, "run one load cell instead of the experiment suite")
	clients := flag.Int("clients", 64, "load: concurrent client agents")
	perConn := flag.Int("per-conn", 8, "load: agents sharing each TCP connection")
	ops := flag.Int("ops", 100, "load: operations per agent")
	rate := flag.Float64("rate", 0, "load: open-loop aggregate arrival rate in ops/sec (0 = closed loop)")
	dur := flag.Duration("for", time.Second, "load: open-loop run duration (with -rate)")
	addrs := flag.String("addrs", "", "load: comma-separated endpoints of an already-running cluster, in shard order (closed loop only)")
	backups := flag.String("backups", "", "load: comma-separated backup address per shard for failover (with -addrs; empty entries allowed)")
	flag.Parse()

	if *load {
		return runLoad(*clients, *perConn, *ops, *rate, *dur, *addrs, *backups, *jsonOut)
	}

	runners := experiments.All()
	if *list {
		for _, r := range runners {
			fmt.Printf("%-4s %s\n", r.ID, r.Name)
		}
		return 0
	}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	var results []jsonTable
	failed := 0
	// Wall-clock experiments sleep for real spindle occupancy and dominate
	// the runtime; -smoke drops them so a pass stays under ~10 s.
	wallClock := map[string]bool{"E16": true}
	for _, r := range runners {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		if *smoke && wallClock[r.ID] {
			continue
		}
		start := time.Now()
		tbl, err := r.Run()
		elapsed := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.ID, err)
			failed++
			continue
		}
		tbl.Render(os.Stdout)
		fmt.Printf("  (%s took %v)\n\n", r.ID, elapsed.Round(time.Millisecond))
		results = append(results, jsonTable{
			ID: tbl.ID, Title: tbl.Title, Claim: tbl.Claim,
			Columns: tbl.Columns, Rows: tbl.Rows, Notes: tbl.Notes,
			ElapsedMS: elapsed.Milliseconds(), Profile: tbl.Profile,
		})
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			return 1
		}
		data = append(data, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			return 1
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// jsonLoad is the machine-readable form of one load cell, written when
// -json is combined with -load (the CI multi-node smoke artifact).
type jsonLoad struct {
	Mode      string  `json:"mode"` // closed, open, cluster
	Addrs     string  `json:"addrs,omitempty"`
	Clients   int     `json:"clients"`
	Ops       int     `json:"ops"`
	Offered   int     `json:"offered,omitempty"`
	WallMS    float64 `json:"wall_ms"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50MS     float64 `json:"p50_ms"`
	P95MS     float64 `json:"p95_ms"`
	P99MS     float64 `json:"p99_ms"`
}

// runLoad drives one load cell with explicit knobs and prints throughput
// plus the latency percentiles. Three modes: closed loop against a fresh
// in-process server (default, E20's engine), open loop against the same
// (-rate, S2's engine), or closed loop against an already-running external
// cluster (-addrs, E21's smoke cell).
func runLoad(clients, perConn, ops int, rate float64, dur time.Duration, addrs, backups, jsonOut string) int {
	out := jsonLoad{Clients: clients}
	var res workload.LoadResult
	var hist *obs.Histogram
	switch {
	case addrs != "":
		if rate > 0 {
			fmt.Fprintln(os.Stderr, "load: -rate is not supported with -addrs")
			return 1
		}
		endpoints := strings.Split(addrs, ",")
		var backupList []string
		if backups != "" {
			backupList = strings.Split(backups, ",")
		}
		// Client IDs and the namespace directory must miss earlier runs
		// against the same long-lived servers: a reused client ID would hit
		// the servers' duplicate caches, a reused path their namespace.
		uniq := uint64(time.Now().UnixNano())
		var err error
		res, hist, err = experiments.ClusterLoadRun(endpoints, backupList, clients, ops, uniq, fmt.Sprintf("%x", uniq))
		if err != nil {
			fmt.Fprintf(os.Stderr, "load: %v\n", err)
			return 1
		}
		out.Mode, out.Addrs = "cluster", addrs
		fmt.Printf("cluster=%s clients=%d ops=%d\n", addrs, clients, res.Ops)
	case rate > 0:
		open, h, err := experiments.LoadRunOpen(clients, perConn, rate, dur)
		if err != nil {
			fmt.Fprintf(os.Stderr, "load: %v\n", err)
			return 1
		}
		res, hist = open.LoadResult, h
		out.Mode, out.Offered = "open", open.Offered
		fmt.Printf("clients=%d per-conn=%d rate=%.0f/s offered=%d completed=%d\n",
			clients, perConn, rate, open.Offered, open.Ops)
	default:
		var err error
		res, hist, err = experiments.LoadRun(clients, perConn, ops, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "load: %v\n", err)
			return 1
		}
		out.Mode = "closed"
		fmt.Printf("clients=%d per-conn=%d ops=%d\n", clients, perConn, res.Ops)
	}
	fmt.Printf("wall=%v ops/sec=%.0f MB/s=%.1f\n",
		res.Wall.Round(time.Millisecond), res.OpsPerSec(),
		float64(res.Bytes)/(1<<20)/res.Wall.Seconds())
	fmt.Printf("latency p50=%v p95=%v p99=%v max=%v\n",
		hist.Quantile(0.50), hist.Quantile(0.95), hist.Quantile(0.99), hist.Max())
	if jsonOut != "" {
		out.Ops = res.Ops
		out.WallMS = float64(res.Wall.Microseconds()) / 1e3
		out.OpsPerSec = res.OpsPerSec()
		out.P50MS = float64(hist.Quantile(0.50).Microseconds()) / 1e3
		out.P95MS = float64(hist.Quantile(0.95).Microseconds()) / 1e3
		out.P99MS = float64(hist.Quantile(0.99).Microseconds()) / 1e3
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			return 1
		}
		data = append(data, '\n')
		if jsonOut == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(jsonOut, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			return 1
		}
	}
	return 0
}
