// Command rhodosd runs a RHODOS file facility server: a full simulated
// cluster (disks, stable storage, disk servers, file service, naming
// service) exposed over TCP with the idempotent message protocol of §3.
//
// Usage:
//
//	rhodosd -listen 127.0.0.1:7423 -disks 2
//	rhodosd -debug 127.0.0.1:7480   # HTTP observability endpoints
//
// A multi-node deployment runs one rhodosd per shard, each told its place
// in the cluster and the full endpoint list (identical, in shard order, on
// every node):
//
//	rhodosd -listen 127.0.0.1:7423 -shard 0/3 -peers 127.0.0.1:7423,127.0.0.1:7424,127.0.0.1:7425
//	rhodosd -listen 127.0.0.1:7424 -shard 1/3 -peers 127.0.0.1:7423,127.0.0.1:7424,127.0.0.1:7425
//	rhodosd -listen 127.0.0.1:7425 -shard 2/3 -peers 127.0.0.1:7423,127.0.0.1:7424,127.0.0.1:7425
//
// A shard may be replicated: -backups lists one backup address per shard
// (empty entries for shards without one), the shard's primary adds
// -role primary, and a second rhodosd at the backup address runs with
// -role backup and the same -shard/-peers/-backups. The primary ships
// committed mutations to the backup and holds acks until it confirms; if
// the primary dies, the backup promotes itself after -repl-ttl of silence
// and clients fail over to it:
//
//	rhodosd -listen 127.0.0.1:7424 -shard 1/3 -peers ... -backups ,127.0.0.1:7434, -role primary
//	rhodosd -listen 127.0.0.1:7434 -shard 1/3 -peers ... -backups ,127.0.0.1:7434, -role backup
//
// With -debug set, the daemon serves:
//
//	GET /debug/profile   per-layer latency profile (?format=json) and, in the
//	                     text form, the operation counters
//	GET /debug/flight    recent + in-flight span trees and fault dumps
//	GET /debug/events    failover/lease event log (text; ?format=json)
//	GET /debug/healthz   role, shard, and map version as JSON
//
// Stop it with SIGINT/SIGTERM; the facility flushes and shuts down cleanly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/rpc"
)

func main() {
	os.Exit(run())
}

func run() int {
	listen := flag.String("listen", "127.0.0.1:7423", "TCP listen address")
	disks := flag.Int("disks", 1, "number of simulated data disks")
	tracks := flag.Int("tracks", 4096, "tracks per disk (32 fragments each; 4096 = 256MB)")
	debug := flag.String("debug", "", "HTTP listen address for /debug/profile and /debug/flight (empty = off)")
	shardSpec := flag.String("shard", "", "this server's shard as i/N (empty = single-node 0/1)")
	peers := flag.String("peers", "", "comma-separated endpoint list for all N shards, in shard order (defaults to -listen for a single-node cluster)")
	leaseTTL := flag.Duration("lease-ttl", cluster.DefaultLeaseTTL, "network lock lease duration")
	backupsSpec := flag.String("backups", "", "comma-separated backup address per shard, in shard order (empty entries for unreplicated shards)")
	roleName := flag.String("role", "none", "replication role for this shard: none, primary, or backup")
	replTTL := flag.Duration("repl-ttl", cluster.DefaultReplTTL, "replication lease: the backup promotes after this much primary silence")
	traceSample := flag.Int("trace-sample", obs.DefaultSampleRate, "build a span tree for one operation in N, and wall-time one interior bracket in N (1 = every operation, 0 = only slow, failed and remotely traced trees); counts, virtual times and roots' wall times cover every operation regardless")
	flag.Parse()
	shard, shards, err := cluster.ParseShard(*shardSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rhodosd: %v\n", err)
		return 2
	}
	endpoints := []string{*listen}
	if *peers != "" {
		endpoints = strings.Split(*peers, ",")
	}
	if len(endpoints) != shards {
		fmt.Fprintf(os.Stderr, "rhodosd: -peers lists %d endpoint(s) but -shard says %d shard(s)\n", len(endpoints), shards)
		return 2
	}
	var backups []string
	if *backupsSpec != "" {
		backups = strings.Split(*backupsSpec, ",")
		if len(backups) != shards {
			fmt.Fprintf(os.Stderr, "rhodosd: -backups lists %d address(es) but -shard says %d shard(s)\n", len(backups), shards)
			return 2
		}
	}
	var role cluster.Role
	switch *roleName {
	case "none":
		role = cluster.RoleNone
	case "primary":
		role = cluster.RolePrimary
	case "backup":
		role = cluster.RoleBackup
	default:
		fmt.Fprintf(os.Stderr, "rhodosd: unknown role %q (none, primary, or backup)\n", *roleName)
		return 2
	}
	if role != cluster.RoleNone && (backups == nil || backups[shard] == "") {
		fmt.Fprintf(os.Stderr, "rhodosd: -role %s requires a -backups entry for shard %d\n", *roleName, shard)
		return 2
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rhodosd: listen: %v\n", err)
		return 1
	}
	rec := obs.New(obs.WithSampleRate(*traceSample))
	n, err := node.Start(node.Config{
		Facility: core.Config{
			Disks:    *disks,
			Geometry: device.Geometry{FragmentsPerTrack: 32, Tracks: *tracks},
			Obs:      rec,
		},
		Shard:    shard,
		Map:      cluster.Map{Version: 1, Endpoints: endpoints, Backups: backups},
		Role:     role,
		LeaseTTL: *leaseTTL,
		ReplTTL:  *replTTL,
		Listener: ln,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rhodosd: %v\n", err)
		return 1
	}
	defer func() {
		if err := n.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "rhodosd: shutdown: %v\n", err)
		}
	}()
	fmt.Printf("rhodosd: serving shard %d/%d (role %v), %d disk(s) on %s\n", shard, shards, n.Service.Role(), *disks, n.Addr())

	if *debug != "" {
		dln, err := net.Listen("tcp", *debug)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rhodosd: debug listen: %v\n", err)
			return 1
		}
		httpSrv := &http.Server{Handler: debugMux(rec, n.Facility.Metrics, n.Service, shard, shards, *listen)}
		go func() { _ = httpSrv.Serve(dln) }()
		defer func() { _ = httpSrv.Close() }()
		fmt.Printf("rhodosd: debug endpoints on http://%s/debug/profile\n", dln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("\nrhodosd: shutting down")
	fmt.Print(n.Facility.Metrics.String())
	return 0
}

// debugMux serves the observability endpoints: the per-layer latency
// profile, the flight recorder's span trees, the failover event log, and a
// health summary for deployment scripts.
func debugMux(rec *obs.Recorder, met *metrics.Set, svc *cluster.Service, shard, shards int, addr string) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/healthz", func(w http.ResponseWriter, r *http.Request) {
		out := struct {
			Role       string `json:"role"`
			Shard      int    `json:"shard"`
			Shards     int    `json:"shards"`
			MapVersion uint64 `json:"map_version"`
			Addr       string `json:"addr"`
			// Tracing as configured: -trace-sample, and the fixed slow threshold.
			SampleRate      int   `json:"sample_rate"`
			SlowThresholdNS int64 `json:"slow_threshold_ns"`
		}{svc.Role().String(), shard, shards, svc.Map().Version, addr,
			rec.SampleRate(), obs.SlowThreshold.Nanoseconds()}
		data, err := json.Marshal(&out)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(data, '\n'))
	})
	mux.HandleFunc("GET /debug/events", func(w http.ResponseWriter, r *http.Request) {
		events := rec.Events()
		if wantsJSON(r) {
			out := struct {
				Events []obs.Event `json:"events"`
				Total  int         `json:"total"`
			}{events, rec.EventTotal()}
			writeJSON(w, &out)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "event log: %d retained of %d total\n", len(events), rec.EventTotal())
		for _, e := range events {
			fmt.Fprintf(w, "%s  %-12s %s\n", time.Unix(0, e.WallUnixNS).Format(time.RFC3339Nano), e.Name, e.Detail)
		}
	})
	mux.HandleFunc("GET /debug/profile", func(w http.ResponseWriter, r *http.Request) {
		p := rec.Profile()
		if wantsJSON(r) {
			writeJSON(w, p)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		p.Render(w)
		// The operation counters sit beside the latencies: cache hits and
		// misses, disk references, and the miss fetches by class with the
		// blocks each installed (fs.fetch.*) — read-ahead usefulness is
		// blocks installed against fs.cache.hit.
		fmt.Fprintln(w, "counters:")
		fmt.Fprint(w, met.String())
		// The wire-buffer free lists are process-wide: gets − puts is what
		// callers hold, misses are the gets that had to allocate.
		gets, puts := rpc.BufferBalance()
		fmt.Fprintf(w, "%-28s %d\n%-28s %d\n%-28s %d\n",
			"rpc.buffer.gets", gets, "rpc.buffer.puts", puts, "rpc.buffer.misses", rpc.BufferMisses())
	})
	mux.HandleFunc("GET /debug/flight", func(w http.ResponseWriter, r *http.Request) {
		trees, inFlight, dumps, slow := rec.Flight(), rec.InFlight(), rec.FaultDumps(), rec.SlowOps()
		if wantsJSON(r) {
			out := struct {
				Trees      []*obs.SpanData  `json:"trees"`
				InFlight   []*obs.SpanData  `json:"in_flight,omitempty"`
				FaultDumps []*obs.FaultDump `json:"fault_dumps,omitempty"`
				SlowOps    []obs.SlowOp     `json:"slow_ops,omitempty"`
			}{trees, inFlight, dumps, slow}
			writeJSON(w, &out)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "flight recorder: %d retained tree(s), %d in flight, %d fault dump(s), %d slow or failed op(s); -trace-sample %d, slow at %v\n",
			len(trees), len(inFlight), len(dumps), len(slow), rec.SampleRate(), obs.SlowThreshold)
		for _, tr := range trees {
			tr.Render(w)
		}
		if len(slow) > 0 {
			fmt.Fprintln(w, "slow or failed:")
			for _, op := range slow {
				op.Render(w)
			}
		}
		if len(inFlight) > 0 {
			fmt.Fprintln(w, "in flight:")
			for _, tr := range inFlight {
				tr.Render(w)
			}
		}
		for i, d := range dumps {
			fmt.Fprintf(w, "fault dump %d: point=%s kind=%s\n", i, d.Point, d.Kind)
			for _, tr := range d.InFlight {
				tr.Render(w)
			}
		}
	})
	return mux
}

// writeJSON answers with v as indented JSON.
func writeJSON(w http.ResponseWriter, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

// wantsJSON reports whether the request asked for a JSON response, either
// via ?format=json or an Accept header.
func wantsJSON(r *http.Request) bool {
	if r.URL.Query().Get("format") == "json" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "application/json")
}
