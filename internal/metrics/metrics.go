// Package metrics collects the operation counters the RHODOS experiments
// report: disk references, seeks, bytes moved, cache hits and misses, and
// transaction outcomes.
//
// A single Set is threaded through a cluster (disk servers, file services,
// agents) so an experiment can snapshot "how many disk references did this
// workload cost" — the unit the paper's performance claims are stated in.
//
// Counters are striped: each named counter is a set of cache-line-padded
// atomics, so concurrent I/O paths on different disks never contend on a
// global mutex. Readers (Get, Snapshot) merge the stripes.
//
// A component resolves each counter it increments once, with Set.Counter,
// when it is built (or in its With… option), and counts through the handle:
// an increment is one striped atomic add, with no name hashed and no lock
// taken. A nil Set hands out nil handles, which count nothing. Reset zeroes
// every counter in place, so handles stay valid across it; Snapshot (and
// Diff and String over it) leaves out counters that read zero, so a counter
// resolved but never incremented is not reported.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Counter names used across the facility. Packages add their own counters
// freely; these are the ones the experiment harness relies on.
const (
	DiskReferences = "disk.references"    // physical disk operations issued
	DiskSeeks      = "disk.seeks"         // head movements between tracks
	DiskBytesRead  = "disk.bytes_read"    // payload bytes read from platters
	DiskBytesWrite = "disk.bytes_written" // payload bytes written to platters

	TrackCacheHit   = "disk.track_cache.hit"
	TrackCacheMiss  = "disk.track_cache.miss"
	ServerCacheHit  = "fs.cache.hit"
	ServerCacheMiss = "fs.cache.miss"

	// File-service miss fetches by class — one that continues a sequential
	// stream fetches the whole contiguous run, any other the request's blocks
	// only — and the blocks each class installed in the server cache. Blocks
	// installed against ServerCacheHit says how much of the read-ahead is used.
	FetchStream       = "fs.fetch.stream"
	FetchDemand       = "fs.fetch.demand"
	FetchStreamBlocks = "fs.fetch.stream.blocks"
	FetchDemandBlocks = "fs.fetch.demand.blocks"

	StableWrites = "stable.writes"

	WalSyncs        = "wal.syncs"         // stable-storage barriers that hardened log records
	TxnGroupBatches = "txn.group.batches" // group-commit batches synced by a leader
	TxnGroupWaits   = "txn.group.waits"   // committers that parked as followers

	TxnCommitted = "txn.committed"
	TxnAborted   = "txn.aborted"
	TxnTimedOut  = "txn.timed_out" // aborted by the N*LT deadlock timeout
	LocksGranted = "lock.granted"
	LockWaits    = "lock.waits"
	LockUpgrades = "lock.upgrades"

	RPCRequests   = "rpc.requests"
	RPCDuplicates = "rpc.duplicates" // requests answered from the idempotency cache
	RPCRetries    = "rpc.retries"

	ParityFullStripeWrites = "parity.writes.full_stripe" // parity from new data alone, no reads
	ParityRMWWrites        = "parity.writes.rmw"         // read-modify-write parity updates
	ParityDegradedWrites   = "parity.writes.degraded"    // writes while a disk is failed
	ParityDegradedReads    = "parity.reads.degraded"     // units reconstructed by XOR
	ParityRebuildStripes   = "parity.rebuild.stripes"    // stripes resynced onto a replacement
)

// stripes is the number of independent atomics per counter. It is an odd
// prime, so stripeOf puts stacks a power of two stack units apart on
// different stripes.
const stripes = 17

// paddedInt64 is an atomic counter padded out to a cache line so neighbouring
// stripes do not false-share.
type paddedInt64 struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is one named counter of a Set: a stripe of padded atomics summed
// on read. Components hold the handle Set.Counter returns and increment
// through it; a nil *Counter (from a nil Set) counts nothing.
type Counter struct {
	parts [stripes]paddedInt64
}

// Add adds delta to the counter.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.parts[stripeHint()].v.Add(delta)
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.Add(1) }

func (c *Counter) sum() int64 {
	var s int64
	for i := range c.parts {
		s += c.parts[i].v.Load()
	}
	return s
}

func (c *Counter) zero() {
	for i := range c.parts {
		c.parts[i].v.Store(0)
	}
}

// stripeHint picks the calling goroutine's stripe from the address of a
// local variable: every goroutine runs on a stack of its own, so concurrent
// writers land on different stripes without any per-goroutine state, pool
// round trip or atomic. It is only a hint — a stack that moves as it grows
// keeps counting correctly on another stripe.
func stripeHint() int {
	var local byte
	return stripeOf(uintptr(unsafe.Pointer(&local)))
}

// stripeOf is stripeHint's hash of a stack address: the address in units of
// the smallest goroutine stack (2 KiB, and stacks are aligned to their size),
// modulo the stripe count. Neighbouring stacks sit a power of two units apart
// — one unit for two fresh stacks — and no power of two is a multiple of an
// odd prime, so neighbours never share a stripe and as many stacks in a row
// as there are stripes use every one. Within a 2 KiB stack the hint does not
// move with call depth.
func stripeOf(addr uintptr) int {
	return int(addr>>11) % stripes
}

// Set is a concurrency-safe bag of named counters plus a virtual-time
// accumulator. The zero value is ready to use. The mutex guards only the
// name→counter map, which only grows: a counter, once created, is the same
// *Counter for the life of the set.
type Set struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	simTime  Counter
}

// NewSet returns an empty metric set.
func NewSet() *Set { return &Set{} }

// Counter returns the handle of counter name, creating the counter on first
// use. Resolve it once and keep it: the lookup hashes the name under the
// set's mutex, the handle's Add does not. A nil set returns nil, a handle
// that counts nothing, so components run without metrics plumbing.
func (s *Set) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	c := s.counters[name]
	s.mu.RUnlock()
	if c != nil {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.counters == nil {
		s.counters = make(map[string]*Counter)
	}
	if c = s.counters[name]; c == nil {
		c = &Counter{}
		s.counters[name] = c
	}
	return c
}

// AddSimTime accumulates simulated device time.
func (s *Set) AddSimTime(d time.Duration) {
	if s == nil {
		return
	}
	s.simTime.Add(int64(d))
}

// Get returns the current value of counter name (zero if never touched).
func (s *Set) Get(name string) int64 {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	c := s.counters[name]
	s.mu.RUnlock()
	if c == nil {
		return 0
	}
	return c.sum()
}

// SimTime returns the accumulated simulated device time.
func (s *Set) SimTime() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.simTime.sum())
}

// Snapshot returns a copy of every counter that reads nonzero.
func (s *Set) Snapshot() map[string]int64 {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]int64, len(s.counters))
	for k, c := range s.counters {
		if v := c.sum(); v != 0 {
			out[k] = v
		}
	}
	return out
}

// Reset zeroes every counter and the simulated time in place; handles stay
// valid. Concurrent increments racing with a Reset may land on either side
// of it.
func (s *Set) Reset() {
	if s == nil {
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, c := range s.counters {
		c.zero()
	}
	s.simTime.zero()
}

// Diff returns the per-counter difference s - prev, where prev is a snapshot
// taken earlier with Snapshot. Counters absent from prev are treated as zero.
func (s *Set) Diff(prev map[string]int64) map[string]int64 {
	cur := s.Snapshot()
	out := make(map[string]int64, len(cur))
	for k, v := range cur {
		if d := v - prev[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// String renders the counters sorted by name, one per line.
func (s *Set) String() string {
	snap := s.Snapshot()
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "%-28s %d\n", k, snap[k])
	}
	if st := s.SimTime(); st != 0 {
		fmt.Fprintf(&b, "%-28s %v\n", "sim.time", st)
	}
	return b.String()
}

// HitRate is a convenience for reporting cache effectiveness: it returns
// hits/(hits+misses), or 0 when both are zero.
func HitRate(hits, misses int64) float64 {
	total := hits + misses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}
