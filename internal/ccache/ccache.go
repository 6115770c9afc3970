// Package ccache is the coherent client-side cache: a write-back block
// cache that sits behind the agent.FileService interface, kept coherent
// across clients by server-granted leases and server-to-client
// invalidation callbacks (§5's client caching made safe for sharing).
//
// The protocol has three request methods and one push:
//
//   - cc.lease.acquire: grant (or renew) a read or write lease on one
//     file. The reply carries the file's version, its current size, and
//     the lease TTL, so a freshly leased client needs no separate size
//     RPC before serving reads locally.
//   - cc.lease.release: drop a lease early.
//   - cc.lease.ack: acknowledge a recall — the holder has purged (and,
//     for a write lease, written back) its cached state.
//   - cc.recall (push): the server revokes a lease because a conflicting
//     operation arrived. Rides the multiplexed connection as a push
//     frame (rpc.Pusher), so no client-side listening socket is needed.
//
// Coherence invariant: per file, either many read leases or one write
// lease is outstanding. A conflicting operation — a write under read
// leases, anything under another client's write lease — recalls the
// conflicting holders and proceeds only once they acknowledged (or a
// bounded recall wait expired and the server broke the lease). A client
// whose clock says its lease expired stops serving cached data on its
// own, so a partitioned holder goes stale for at most one TTL.
//
// On replicated shards (cluster primary/backup), cc.lease.acquire is
// part of the replicated mutation stream, so the backup's lease table
// tracks the primary's grants and survives failover. Releases and acks
// deliberately are not replicated — the backup over-approximates the
// holder set and converges through its own sweeper — because an ack
// must be able to land while a recalling operation is still holding the
// shard's replication order lock.
//
// Local mode (Config.Lease == nil) is the same cache with no wire under
// it: the client cache of an in-process machine (core.Cluster.NewMachine),
// assumed to be the file's sole basic-file writer. With no lease transport
// nobody can tell the cache a file changed, so it trusts its blocks but not
// its size: every read, write, Size and Attributes takes max(inner size,
// locally buffered growth), which is what lets a file grown by a committed
// transaction on the same facility be read past its old end. Blocks cached
// before such a foreign write stay stale until Close or DropLeases.
//
// Write-back, in both modes, goes through one sink shape (FlushSink: all of
// one file's dirty runs per call) on close, recall, truncate, the dirty
// high-water mark, a write that cannot get a write lease, or an explicit
// Flush or FlushFile. No commit path calls it; a flushed run is as durable
// as the sink's writes.
package ccache

import (
	"context"
	"encoding/binary"
	"errors"
	"strings"
	"time"

	"repro/internal/rpc"
)

// Protocol method names. The lease calls are client→server requests; the
// recall is a server→client push frame.
const (
	MLeaseAcquire = "cc.lease.acquire"
	MLeaseRelease = "cc.lease.release"
	MLeaseAck     = "cc.lease.ack"
	MRecall       = "cc.recall"
)

// Lease modes.
const (
	// ModeRead is a shared lease: cached blocks may be served locally.
	ModeRead byte = 1
	// ModeWrite is an exclusive lease: writes may be buffered locally
	// (delayed write) and flushed on close, on recall, or on an explicit
	// flush.
	ModeWrite byte = 2
)

// DefaultTTL is the lease duration every grant carries. It is also the
// staleness bound for a partitioned holder.
const DefaultTTL = 2 * time.Second

// DefaultRecallWait bounds how long the server waits for a recalled
// holder's acknowledgement before breaking the lease and proceeding.
const DefaultRecallWait = 250 * time.Millisecond

// busyMarker is the substring IsBusy matches after the error has crossed
// the wire. The server answers with it — wrapped rpc.Transient so the
// duplicate cache does not pin the refusal — while a recall it initiated
// for the request is still in flight.
const busyMarker = "ccache: recall in progress"

// IsBusy reports whether a remote error means a recall is in flight for
// the file and the operation should be retried shortly.
func IsBusy(err error) bool {
	return err != nil && strings.Contains(err.Error(), busyMarker)
}

// Grant is the server's answer to a lease acquire.
type Grant struct {
	// Ver is the file's coherence version: it changes on every mutation,
	// so a re-acquiring client keeps its cached blocks only when the
	// granted version matches the one it cached under.
	Ver uint64
	// Size is the file's size at grant time; the client serves it (and
	// short reads against it) without further RPCs while leased.
	Size int64
	// TTL is how long the lease is valid without renewal.
	TTL time.Duration
}

// LeaseTransport routes lease-protocol calls to the server that owns a
// file. DirectLease serves single-server rigs; cluster.Router implements
// it across shards (splitting routed IDs). File IDs are in the caller's
// ID space — routed IDs above a router, raw IDs above a direct client.
type LeaseTransport interface {
	AcquireLease(file, client uint64, mode byte) (Grant, error)
	ReleaseLease(file, client uint64) error
	AckRecall(file, client uint64) error
}

// Wire layouts (big endian, fixed):
//
//	acquire args:  client(8) file(8) mode(1)
//	acquire reply: ver(8) size(8) ttl_ns(8)
//	release/ack:   client(8) file(8)
//	recall push:   file(8) ver(8)
const (
	acquireArgsLen  = 8 + 8 + 1
	acquireReplyLen = 8 + 8 + 8
	leaseIDArgsLen  = 8 + 8
)

// AppendAcquireArgs encodes a cc.lease.acquire request body.
func AppendAcquireArgs(dst []byte, file, client uint64, mode byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, client)
	dst = binary.BigEndian.AppendUint64(dst, file)
	return append(dst, mode)
}

// DecodeAcquireArgs decodes a cc.lease.acquire request body.
func DecodeAcquireArgs(body []byte) (file, client uint64, mode byte, err error) {
	r := rpc.NewReader(body)
	client, file, mode = r.U64(), r.U64(), r.U8()
	return file, client, mode, r.Done("ccache: acquire args")
}

// AppendGrant encodes a cc.lease.acquire reply body.
func AppendGrant(dst []byte, g Grant) []byte {
	dst = binary.BigEndian.AppendUint64(dst, g.Ver)
	dst = binary.BigEndian.AppendUint64(dst, uint64(g.Size))
	return binary.BigEndian.AppendUint64(dst, uint64(g.TTL))
}

// DecodeGrant decodes a cc.lease.acquire reply body.
func DecodeGrant(body []byte) (Grant, error) {
	r := rpc.NewReader(body)
	g := Grant{Ver: r.U64(), Size: int64(r.U64()), TTL: time.Duration(r.U64())}
	return g, r.Done("ccache: grant reply")
}

// AppendLeaseIDArgs encodes a cc.lease.release or cc.lease.ack body.
func AppendLeaseIDArgs(dst []byte, file, client uint64) []byte {
	dst = binary.BigEndian.AppendUint64(dst, client)
	return binary.BigEndian.AppendUint64(dst, file)
}

// DecodeLeaseIDArgs decodes a cc.lease.release or cc.lease.ack body.
func DecodeLeaseIDArgs(body []byte) (file, client uint64, err error) {
	r := rpc.NewReader(body)
	client, file = r.U64(), r.U64()
	return file, client, r.Done("ccache: lease args")
}

// AppendRecall encodes a cc.recall push body. The result must be a plain
// allocation when handed to rpc.Pusher.Push (see serverConn.Push's
// ownership rule), which callers get by passing a nil dst.
func AppendRecall(dst []byte, file, ver uint64) []byte {
	dst = binary.BigEndian.AppendUint64(dst, file)
	return binary.BigEndian.AppendUint64(dst, ver)
}

// DecodeRecall decodes a cc.recall push body.
func DecodeRecall(body []byte) (file, ver uint64, err error) {
	r := rpc.NewReader(body)
	file, ver = r.U64(), r.U64()
	return file, ver, r.Done("ccache: recall body")
}

// DirectLease is the single-server LeaseTransport: lease calls go over
// one rpc client, and file IDs pass through unrouted.
type DirectLease struct {
	C *rpc.Client
}

// AcquireLease implements LeaseTransport.
func (d *DirectLease) AcquireLease(file, client uint64, mode byte) (Grant, error) {
	args := AppendAcquireArgs(rpc.Buffer(acquireArgsLen)[:0], file, client, mode)
	out, err := d.C.Call(context.Background(), MLeaseAcquire, args)
	rpc.Recycle(args)
	if err != nil {
		d.C.ReleaseBody(out)
		return Grant{}, err
	}
	g, err := DecodeGrant(out)
	d.C.ReleaseBody(out)
	return g, err
}

// ReleaseLease implements LeaseTransport.
func (d *DirectLease) ReleaseLease(file, client uint64) error {
	return d.leaseID(MLeaseRelease, file, client)
}

// AckRecall implements LeaseTransport.
func (d *DirectLease) AckRecall(file, client uint64) error {
	return d.leaseID(MLeaseAck, file, client)
}

func (d *DirectLease) leaseID(method string, file, client uint64) error {
	args := AppendLeaseIDArgs(rpc.Buffer(leaseIDArgsLen)[:0], file, client)
	out, err := d.C.Call(context.Background(), method, args)
	rpc.Recycle(args)
	d.C.ReleaseBody(out)
	return err
}

// errNoLease is the sentinel for operations that need a lease the client
// could not get; callers fall back to uncached passthrough.
var errNoLease = errors.New("ccache: lease unavailable")

// Named metrics the cache records on the recorders handed in via
// Config.Obs / ServerConfig.Obs. Counters are gauges incremented per
// occurrence; *_ns names are latency histograms in nanoseconds.
const (
	// Client side.
	MetricHits        = "ccache.hits"         // counter: reads served entirely from cache
	MetricMisses      = "ccache.misses"       // counter: reads that fetched at least one block
	MetricRecalls     = "ccache.recalls"      // counter: recall pushes processed
	MetricFlushBlocks = "ccache.flush_blocks" // counter: dirty blocks written back

	// Server side.
	MetricLeaseGrants  = "ccache.lease.grants"   // counter: leases granted or renewed
	MetricLeaseRecalls = "ccache.lease.recalls"  // counter: recalls initiated
	MetricLeaseExpired = "ccache.lease.expired"  // counter: leases dropped by the sweeper
	MetricLeaseBroken  = "ccache.lease.broken"   // counter: leases broken without an ack (timeout, dead conn)
	MetricRecallWaitNS = "ccache.recall.wait_ns" // hist: recall initiation to holder departure
)
