// Command rhodos is the client CLI for a rhodosd server: it resolves
// attributed path names through the remote naming service and performs
// basic-file-service operations over the idempotent message layer.
//
// Usage:
//
//	rhodos -addr 127.0.0.1:7423 put /docs/report ./report.txt
//	rhodos -addr 127.0.0.1:7423 get /docs/report
//	rhodos -addr 127.0.0.1:7423 ls /docs
//	rhodos -addr 127.0.0.1:7423 stat /docs/report
//	rhodos -addr 127.0.0.1:7423 rm /docs/report
//
// Against a multi-shard cluster, -addrs takes the full endpoint list (in
// shard order) and routes each name to its home shard client-side:
//
//	rhodos -addrs 127.0.0.1:7423,127.0.0.1:7424,127.0.0.1:7425 ls /docs
//
// With -cache, file reads and writes go through the coherent client cache:
// the client holds server-granted leases, re-reads are served locally, and
// the server recalls the lease over the connection's push channel when
// another client conflicts. The cacheprobe subcommand reads a file twice
// through the cache and reports whether the second read stayed local:
//
//	rhodos -cache -addrs ... cacheprobe /docs/report
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/ccache"
	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/rpcfs"
)

func main() {
	os.Exit(run())
}

func usage() int {
	fmt.Fprintln(os.Stderr, "usage: rhodos [-addr host:port | -addrs a,b,c] [-cache] <put|get|ls|stat|rm|cacheprobe> args...")
	return 2
}

func run() int {
	addr := flag.String("addr", "127.0.0.1:7423", "rhodosd address (single server)")
	addrs := flag.String("addrs", "", "comma-separated cluster endpoints in shard order (overrides -addr)")
	backups := flag.String("backups", "", "comma-separated backup address per shard for failover (one per endpoint; empty entries allowed)")
	cache := flag.Bool("cache", false, "coherent client cache: lease-protected local reads, recall callbacks, write-back on exit")
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		return usage()
	}
	// A single server is the one-endpoint cluster: its routed IDs equal the
	// raw ones and a one-shard map never redirects.
	endpoints := []string{*addr}
	if *addrs != "" {
		endpoints = strings.Split(*addrs, ",")
	}
	var backupList []string
	if *backups != "" {
		backupList = strings.Split(*backups, ",")
	}
	// A one-shot CLI traces every root it starts (under -cache, the
	// write-back flush): the trace identity rides the wire, so the servers
	// it touched keep the matching trees whatever they sample.
	rec := obs.New(obs.WithSampleRate(1))
	cl, err := node.Dial(node.ClientConfig{
		Endpoints: endpoints,
		Backups:   backupList,
		ClientID:  uint64(os.Getpid()),
		Cache:     *cache,
		Obs:       rec,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rhodos: %v\n", err)
		return 1
	}
	code := command(cl, rec, args)
	// Write back anything still dirty and hand the leases back, so the next
	// client (cached or not) doesn't pay a recall against an exited process.
	if err := cl.Close(); err != nil && code == 0 {
		fmt.Fprintf(os.Stderr, "rhodos: %v\n", err)
		return 1
	}
	return code
}

// command runs one subcommand: names go through the router, file
// operations through the stack's file service (the cache under -cache).
func command(cl *node.Client, rec *obs.Recorder, args []string) int {
	names, files, ccc := cl.Router, cl.Files, cl.Cache
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "rhodos: %v\n", err)
		return 1
	}
	switch args[0] {
	case "put":
		if len(args) != 3 {
			return usage()
		}
		data, err := os.ReadFile(args[2])
		if err != nil {
			return fail(err)
		}
		// Reuse the existing file if the name resolves, else create.
		var id fileservice.FileID
		if e, err := names.ResolvePath(args[1]); err == nil {
			id = fileservice.FileID(e.SystemName)
			if err := files.Truncate(id, 0); err != nil {
				return fail(err)
			}
		} else if rpcfs.IsNotFound(err) {
			id, err = names.CreatePath(fit.Attributes{}, args[1])
			if err != nil {
				return fail(err)
			}
		} else {
			return fail(err)
		}
		if _, err := files.WriteAt(id, 0, data); err != nil {
			return fail(err)
		}
		if ccc != nil {
			// Cached writes are buffered dirty; write them back before
			// claiming success.
			if err := ccc.FlushFile(id); err != nil {
				return fail(err)
			}
		}
		fmt.Printf("put %s (%d bytes) as file %d\n", args[1], len(data), id)
	case "get":
		if len(args) != 2 {
			return usage()
		}
		e, err := names.ResolvePath(args[1])
		if err != nil {
			return fail(err)
		}
		id := fileservice.FileID(e.SystemName)
		size, err := files.Size(id)
		if err != nil {
			return fail(err)
		}
		data, err := files.ReadAt(id, 0, int(size))
		if err != nil {
			return fail(err)
		}
		if _, err := os.Stdout.Write(data); err != nil {
			return fail(err)
		}
	case "ls":
		if len(args) != 2 {
			return usage()
		}
		entries, err := names.List(args[1])
		if err != nil {
			return fail(err)
		}
		for _, n := range entries {
			fmt.Println(n)
		}
	case "stat":
		if len(args) != 2 {
			return usage()
		}
		e, err := names.ResolvePath(args[1])
		if err != nil {
			return fail(err)
		}
		attr, err := files.Attributes(fileservice.FileID(e.SystemName))
		if err != nil {
			return fail(err)
		}
		fmt.Printf("path:     %s\nsystem:   %d\nsize:     %d bytes\nservice:  %v\nlocking:  %v\ncreated:  %v\n",
			args[1], e.SystemName, attr.Size, attr.Service, attr.Locking, attr.Created)
	case "rm":
		if len(args) != 2 {
			return usage()
		}
		e, err := names.ResolvePath(args[1])
		if err != nil {
			return fail(err)
		}
		if err := files.Delete(fileservice.FileID(e.SystemName)); err != nil {
			return fail(err)
		}
		fmt.Printf("removed %s\n", args[1])
	case "cacheprobe":
		// Read the file twice through the client cache and report whether
		// the second read stayed local — the CI coherence smoke.
		if len(args) != 2 {
			return usage()
		}
		if ccc == nil {
			return fail(errors.New("cacheprobe requires -cache"))
		}
		e, err := names.ResolvePath(args[1])
		if err != nil {
			return fail(err)
		}
		id := fileservice.FileID(e.SystemName)
		size, err := files.Size(id)
		if err != nil {
			return fail(err)
		}
		if _, err := files.ReadAt(id, 0, int(size)); err != nil {
			return fail(err)
		}
		h0 := rec.Gauge(ccache.MetricHits).Value()
		m0 := rec.Gauge(ccache.MetricMisses).Value()
		if _, err := files.ReadAt(id, 0, int(size)); err != nil {
			return fail(err)
		}
		h1 := rec.Gauge(ccache.MetricHits).Value()
		m1 := rec.Gauge(ccache.MetricMisses).Value()
		local := h1 > h0 && m1 == m0
		fmt.Printf("cacheprobe %s: %d bytes; ccache.hits=%d ccache.misses=%d second-read-local=%v\n",
			args[1], size, h1, m1, local)
		if !local {
			return 1
		}
	default:
		return usage()
	}
	return 0
}
