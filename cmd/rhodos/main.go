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
	"sync/atomic"

	"repro/internal/ccache"
	"repro/internal/cluster"
	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/naming"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/rpcfs"
)

func main() {
	os.Exit(run())
}

func usage() int {
	fmt.Fprintln(os.Stderr, "usage: rhodos [-addr host:port | -addrs a,b,c] [-cache] <put|get|ls|stat|rm|cacheprobe> args...")
	return 2
}

// fsClient is what the subcommands need from the facility: the single-server
// rpcfs client (via singleClient) and the multi-shard router both satisfy it.
type fsClient interface {
	ResolvePath(path string) (naming.Entry, error)
	CreatePath(attr fit.Attributes, path string) (fileservice.FileID, error)
	Delete(id fileservice.FileID) error
	ReadAt(id fileservice.FileID, off int64, n int) ([]byte, error)
	WriteAt(id fileservice.FileID, off int64, data []byte) (int, error)
	Truncate(id fileservice.FileID, size int64) error
	Attributes(id fileservice.FileID) (fit.Attributes, error)
	Size(id fileservice.FileID) (int64, error)
	List(dir string) ([]string, error)
}

// singleClient adapts the single-server rpcfs client to fsClient: the only
// mismatch is the name of the path-resolution method.
type singleClient struct {
	*rpcfs.Client
}

func (s singleClient) ResolvePath(path string) (naming.Entry, error) {
	return s.Client.Resolve(path)
}

// cachedFS fronts the file operations with the coherent client cache;
// naming operations (resolve, create-path, list) pass through untouched.
type cachedFS struct {
	fsClient
	cc *ccache.Client
}

func (c cachedFS) Delete(id fileservice.FileID) error { return c.cc.Delete(id) }
func (c cachedFS) ReadAt(id fileservice.FileID, off int64, n int) ([]byte, error) {
	return c.cc.ReadAt(id, off, n)
}
func (c cachedFS) WriteAt(id fileservice.FileID, off int64, data []byte) (int, error) {
	return c.cc.WriteAt(id, off, data)
}
func (c cachedFS) Truncate(id fileservice.FileID, size int64) error { return c.cc.Truncate(id, size) }
func (c cachedFS) Attributes(id fileservice.FileID) (fit.Attributes, error) {
	return c.cc.Attributes(id)
}
func (c cachedFS) Size(id fileservice.FileID) (int64, error) { return c.cc.Size(id) }

func run() int {
	addr := flag.String("addr", "127.0.0.1:7423", "rhodosd address (single server)")
	addrs := flag.String("addrs", "", "comma-separated cluster endpoints in shard order (overrides -addr)")
	backups := flag.String("backups", "", "comma-separated backup address per shard for failover (with -addrs; empty entries allowed)")
	cache := flag.Bool("cache", false, "coherent client cache: lease-protected local reads, recall callbacks, write-back on exit")
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		return usage()
	}
	clientID := uint64(os.Getpid())
	rec := obs.New()
	var cl fsClient
	var ccc *ccache.Client
	if *addrs != "" {
		var backupList []string
		if *backups != "" {
			backupList = strings.Split(*backups, ",")
		}
		rt, err := cluster.NewRouter(cluster.RouterConfig{
			Endpoints: strings.Split(*addrs, ","),
			Backups:   backupList,
			ClientID:  clientID,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "rhodos: %v\n", err)
			return 1
		}
		defer rt.Shutdown()
		cl = rt
		if *cache {
			cc, err := ccache.New(ccache.Config{Inner: rt, Lease: rt, ClientID: clientID, Obs: rec})
			if err != nil {
				fmt.Fprintf(os.Stderr, "rhodos: %v\n", err)
				return 1
			}
			// Recall pushes carry the shard's raw file ID; the cache keys
			// files by routed ID, so re-route before delivering.
			rt.SetPushSink(func(shard int, method string, body []byte) {
				if method != ccache.MRecall {
					return
				}
				if file, ver, err := ccache.DecodeRecall(body); err == nil {
					cc.Recall(fileservice.FileID(cluster.RoutedID(shard, file)), ver)
				}
			}, func(shard int, err error) { cc.DropLeases(nil) })
			ccc = cc
			cl = cachedFS{fsClient: rt, cc: cc}
		}
	} else {
		var ccp atomic.Pointer[ccache.Client]
		var dialOpts []rpc.TCPOption
		if *cache {
			dialOpts = []rpc.TCPOption{
				rpc.WithPushHandler(func(method string, body []byte) {
					if method != ccache.MRecall {
						return
					}
					if file, ver, err := ccache.DecodeRecall(body); err == nil {
						if cc := ccp.Load(); cc != nil {
							cc.Recall(fileservice.FileID(file), ver)
						}
					}
				}),
				rpc.WithConnDown(func(error) {
					if cc := ccp.Load(); cc != nil {
						cc.DropLeases(nil)
					}
				})}
		}
		tr, err := rpc.DialTCP(*addr, dialOpts...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rhodos: %v\n", err)
			return 1
		}
		defer func() { _ = tr.Close() }()
		rcl := rpc.NewClient(tr, clientID, 10, nil)
		base := singleClient{&rpcfs.Client{C: rcl}}
		cl = base
		if *cache {
			cc, err := ccache.New(ccache.Config{
				Inner:    base.Client,
				Lease:    &ccache.DirectLease{C: rcl},
				ClientID: clientID,
				Obs:      rec,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "rhodos: %v\n", err)
				return 1
			}
			ccp.Store(cc)
			ccc = cc
			cl = cachedFS{fsClient: base, cc: cc}
		}
	}

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
		if e, err := cl.ResolvePath(args[1]); err == nil {
			id = fileservice.FileID(e.SystemName)
			if err := cl.Truncate(id, 0); err != nil {
				return fail(err)
			}
		} else if rpcfs.IsNotFound(err) {
			id, err = cl.CreatePath(fit.Attributes{}, args[1])
			if err != nil {
				return fail(err)
			}
		} else {
			return fail(err)
		}
		if _, err := cl.WriteAt(id, 0, data); err != nil {
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
		e, err := cl.ResolvePath(args[1])
		if err != nil {
			return fail(err)
		}
		id := fileservice.FileID(e.SystemName)
		size, err := cl.Size(id)
		if err != nil {
			return fail(err)
		}
		data, err := cl.ReadAt(id, 0, int(size))
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
		names, err := cl.List(args[1])
		if err != nil {
			return fail(err)
		}
		for _, n := range names {
			fmt.Println(n)
		}
	case "stat":
		if len(args) != 2 {
			return usage()
		}
		e, err := cl.ResolvePath(args[1])
		if err != nil {
			return fail(err)
		}
		attr, err := cl.Attributes(fileservice.FileID(e.SystemName))
		if err != nil {
			return fail(err)
		}
		fmt.Printf("path:     %s\nsystem:   %d\nsize:     %d bytes\nservice:  %v\nlocking:  %v\ncreated:  %v\n",
			args[1], e.SystemName, attr.Size, attr.Service, attr.Locking, attr.Created)
	case "rm":
		if len(args) != 2 {
			return usage()
		}
		e, err := cl.ResolvePath(args[1])
		if err != nil {
			return fail(err)
		}
		if err := cl.Delete(fileservice.FileID(e.SystemName)); err != nil {
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
		e, err := cl.ResolvePath(args[1])
		if err != nil {
			return fail(err)
		}
		id := fileservice.FileID(e.SystemName)
		size, err := cl.Size(id)
		if err != nil {
			return fail(err)
		}
		if _, err := cl.ReadAt(id, 0, int(size)); err != nil {
			return fail(err)
		}
		h0 := rec.Gauge(ccache.MetricHits).Value()
		m0 := rec.Gauge(ccache.MetricMisses).Value()
		if _, err := cl.ReadAt(id, 0, int(size)); err != nil {
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
	if ccc != nil {
		// Write back anything still dirty and hand the leases back, so the
		// next client (cached or not) doesn't pay a recall against an
		// exited process.
		if err := ccc.Shutdown(); err != nil {
			return fail(err)
		}
	}
	return 0
}
