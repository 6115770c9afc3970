// Package cluster scales the single-server RHODOS facility out to several
// servers. It adds three pieces on top of the rpc/rpcfs stack:
//
//   - A shard map (Map) partitioning the naming namespace across N server
//     endpoints by a hash of the parent directory, so all files in one
//     directory share a home shard. The map is versioned and served to
//     clients over the cluster.map method; a server receiving a
//     path-addressed request for a name it does not own answers with a
//     structured "wrong shard" redirect instead of executing it.
//
//   - A client-side router (Router) implementing the agent service
//     interfaces over the shard map: one multiplexed connection per server,
//     names resolved to their home shard, system names tagged with the shard
//     index in their upper bits so ID-addressed operations route without a
//     second name lookup, and transparent re-route on redirect.
//
//   - A network lock service (Service lock methods + LockClient) wrapping
//     internal/lock behind rpc with per-transaction leases: clients renew in
//     the background, and a server-side sweeper breaks the locks of
//     transactions whose client died or was partitioned away, reusing the
//     §6.4 lock-invulnerability break machinery so those transactions abort
//     cleanly.
package cluster

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
)

// ShardShift positions the shard index in the upper bits of a routed
// 64-bit system name. Raw per-server FileIDs are sequential small integers,
// far below 2^48, so the tag never collides with the ID proper.
const ShardShift = 48

// rawIDMask extracts the per-server ID from a routed system name.
const rawIDMask = uint64(1)<<ShardShift - 1

// Map is the versioned shard map: endpoint i serves shard i of
// len(Endpoints). Servers hand it to clients via the cluster.map method;
// higher versions supersede lower ones. Backups, when present, holds one
// address per shard in shard order — the hot standby a client may fail over
// to when the shard's primary stops answering ("" for shards without one).
// Failover and promotion rewrite Endpoints/Backups and bump Version; the
// shard count never changes within a map's lifetime.
type Map struct {
	Version   uint64
	Endpoints []string
	Backups   []string
}

// Shards returns the number of shards in the map.
func (m Map) Shards() int { return len(m.Endpoints) }

// Backup returns shard i's backup address, or "" when it has none.
func (m Map) Backup(i int) string {
	if i < 0 || i >= len(m.Backups) {
		return ""
	}
	return m.Backups[i]
}

// Clone deep-copies the map, so a holder may mutate its copy (promotion,
// fencing) without racing readers of the original.
func (m Map) Clone() Map {
	c := Map{Version: m.Version}
	if m.Endpoints != nil {
		c.Endpoints = append([]string(nil), m.Endpoints...)
	}
	if m.Backups != nil {
		c.Backups = append([]string(nil), m.Backups...)
	}
	return c
}

// ShardForPath returns the home shard of an attributed path name among n
// shards: a hash of the parent directory, so all files in one directory
// colocate and a directory listing is answerable by fan-out without
// cross-shard joins per entry.
func ShardForPath(path string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(parentDir(path)))
	return int(h.Sum64() % uint64(n))
}

// parentDir returns the directory component of path ("/" for top-level
// names), tolerating trailing slashes.
func parentDir(path string) string {
	p := strings.TrimSuffix(path, "/")
	i := strings.LastIndexByte(p, '/')
	if i <= 0 {
		return "/"
	}
	return p[:i]
}

// ParseShard parses an "i/N" shard designator ("0/3" = shard 0 of 3) as
// taken on a command line. The empty string means a single-shard cluster.
func ParseShard(s string) (shard, shards int, err error) {
	if s == "" {
		return 0, 1, nil
	}
	// Atoi, not Sscanf: Sscanf stops at the first byte it cannot use and
	// would accept "1/3x" or "1/3/9".
	i, n, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("cluster: bad shard %q, want i/N", s)
	}
	if shard, err = strconv.Atoi(i); err == nil {
		shards, err = strconv.Atoi(n)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("cluster: bad shard %q, want i/N: %v", s, err)
	}
	if shards < 1 || shard < 0 || shard >= shards {
		return 0, 0, fmt.Errorf("cluster: shard %d out of range for %d shards", shard, shards)
	}
	return shard, shards, nil
}

// RoutedID tags a per-server system name with its home shard so
// ID-addressed operations route without a name lookup.
func RoutedID(shard int, raw uint64) uint64 {
	return uint64(shard)<<ShardShift | (raw & rawIDMask)
}

// SplitID undoes RoutedID.
func SplitID(routed uint64) (shard int, raw uint64) {
	return int(routed >> ShardShift), routed & rawIDMask
}

// notMineMarker prefixes the redirect error message. It travels as an
// rpc.ServiceError message string, so the parser matches on the substring
// rather than a concrete error type.
const notMineMarker = "cluster: wrong shard: home="

// NotMine builds the redirect error a shard returns for a path-addressed
// request whose name it does not own: home is the owning shard and version
// the responder's map version, so a client with a stale map knows to
// refresh.
func NotMine(home int, version uint64) error {
	return fmt.Errorf("%s%d version=%d", notMineMarker, home, version)
}

// ParseNotMine reports whether err (possibly a wrapped rpc.ServiceError)
// is a shard redirect, and if so which shard the request belongs to.
func ParseNotMine(err error) (home int, ok bool) {
	if err == nil {
		return 0, false
	}
	msg := err.Error()
	i := strings.Index(msg, notMineMarker)
	if i < 0 {
		return 0, false
	}
	if _, serr := fmt.Sscanf(msg[i+len(notMineMarker):], "%d", &home); serr != nil {
		return 0, false
	}
	return home, true
}
