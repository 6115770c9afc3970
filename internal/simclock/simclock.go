// Package simclock provides a virtual clock used to account for simulated
// device time deterministically.
//
// All disk-cost accounting in the repository runs on a Clock rather than the
// wall clock: a simulated seek "takes" time by advancing the clock, so
// benchmarks are fast, reproducible, and independent of host load. The same
// Clock interface also drives lock-timeout logic in the transaction service,
// which lets tests force deadlock-timeout expiry without sleeping.
package simclock

import (
	"sync"
	"sync/atomic"
	"time"
)

// Clock is a source of virtual time.
//
// Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current virtual time.
	Now() time.Duration
	// Advance moves the clock forward by d and returns the new time.
	// Advance panics if d is negative.
	Advance(d time.Duration) time.Duration
}

// Virtual is a purely virtual clock: time moves only when Advance is called.
// The zero value is ready to use and starts at 0.
type Virtual struct {
	mu  sync.Mutex
	now time.Duration
}

// New returns a new virtual clock starting at zero.
func New() *Virtual { return &Virtual{} }

var _ Clock = (*Virtual)(nil)

// Now returns the current virtual time.
func (c *Virtual) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d and returns the new time.
func (c *Virtual) Advance(d time.Duration) time.Duration {
	if d < 0 {
		panic("simclock: negative advance")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
	return c.now
}

// OpClock is a Clock whose users can bracket each charged operation, so an
// overlap-aware accounting layer (Group) can tell concurrent operations from
// sequential ones. BeginOp(cost) charges cost virtual time to the clock at
// the start of the operation; EndOp marks its completion. Advance(d) is
// equivalent to BeginOp(d) immediately followed by EndOp.
type OpClock interface {
	Clock
	BeginOp(cost time.Duration)
	EndOp()
}

// Batcher marks a window in which operations issued to different members of
// a Group are logically concurrent — the scatter-gather layers bracket their
// fan-out with EnterBatch/LeaveBatch so the overlap credit is structural
// (derived from the code's actual dispatch) rather than dependent on host
// scheduling.
type Batcher interface {
	EnterBatch()
	LeaveBatch()
}

// BeginOp charges d to the virtual clock; on a plain Virtual there is no
// overlap accounting, so it is just Advance.
func (c *Virtual) BeginOp(d time.Duration) { c.Advance(d) }

// EndOp is a no-op on a plain Virtual clock.
func (c *Virtual) EndOp() {}

var _ OpClock = (*Virtual)(nil)

// Group accounts virtual time across a set of devices (Members) with
// overlap-aware merging: operations that are in flight concurrently — either
// because their wall-clock windows overlap or because they were dispatched
// inside one EnterBatch/LeaveBatch window — occupy overlapping virtual
// intervals, so the group's Elapsed is the makespan (max over concurrently
// busy devices), not the sum. Strictly sequential operations still sum.
//
// The rule: while any operation or batch is open ("a burst"), a member's
// next operation starts at max(burst base, that member's own busy-until);
// when the group is idle, the next operation starts at the current elapsed
// time. Same-member operations therefore always serialize (one spindle),
// while different members overlap exactly when the workload actually
// dispatched them together.
type Group struct {
	mu      sync.Mutex
	elapsed atomic.Int64  // overlap-aware completion time of all work so far, ns; written under mu
	base    time.Duration // elapsed when the current burst opened
	bursts  int           // open operations + open batches
}

// NewGroup returns an empty group at time zero.
func NewGroup() *Group { return &Group{} }

// Elapsed returns the overlap-aware completion time of all work charged so
// far: cluster makespan for batched scatter-gather, plain sum for strictly
// sequential work. It is a single atomic load — every span edge and Op
// bracket of an instrumented facility reads it — so it never waits behind an
// operation being charged.
func (g *Group) Elapsed() time.Duration { return time.Duration(g.elapsed.Load()) }

func (g *Group) enterBurstLocked() {
	if g.bursts == 0 {
		g.base = g.Elapsed()
	}
	g.bursts++
}

func (g *Group) leaveBurstLocked() {
	g.bursts--
}

// EnterBatch opens a logical-concurrency window: operations charged to any
// member before the matching LeaveBatch overlap (subject to per-member
// serialization). Batches nest.
func (g *Group) EnterBatch() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.enterBurstLocked()
}

// LeaveBatch closes the window opened by EnterBatch.
func (g *Group) LeaveBatch() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.leaveBurstLocked()
}

var _ Batcher = (*Group)(nil)

// NewMember adds a device to the group and returns its clock.
func (g *Group) NewMember() *Member { return &Member{g: g} }

// Member is one device's clock within a Group. Now returns the device's own
// accumulated busy time (the per-disk virtual time of the serialized design),
// while the group's Elapsed merges members with overlap awareness.
type Member struct {
	g         *Group
	busy      time.Duration // total time this member spent busy
	busyUntil time.Duration // group-timeline instant this member is busy until
}

var _ OpClock = (*Member)(nil)

// Now returns the member's accumulated busy time.
func (m *Member) Now() time.Duration {
	m.g.mu.Lock()
	defer m.g.mu.Unlock()
	return m.busy
}

// BeginOp charges one operation of the given cost to the member, reserving
// its virtual interval on the group timeline.
func (m *Member) BeginOp(cost time.Duration) {
	if cost < 0 {
		panic("simclock: negative cost")
	}
	g := m.g
	g.mu.Lock()
	defer g.mu.Unlock()
	g.enterBurstLocked()
	start := g.base
	if m.busyUntil > start {
		start = m.busyUntil
	}
	end := start + cost
	m.busyUntil = end
	m.busy += cost
	if end > g.Elapsed() {
		g.elapsed.Store(int64(end))
	}
}

// EndOp marks the operation begun by BeginOp complete.
func (m *Member) EndOp() {
	g := m.g
	g.mu.Lock()
	defer g.mu.Unlock()
	g.leaveBurstLocked()
}

// Advance charges d as one immediately completed operation and returns the
// member's accumulated busy time.
func (m *Member) Advance(d time.Duration) time.Duration {
	m.BeginOp(d)
	m.EndOp()
	return m.Now()
}

// Wall is a Clock backed by the real monotonic clock. Advance on a Wall
// clock is a no-op apart from returning Now, which makes it suitable for
// running the same code against real time (e.g. in the TCP server where
// simulated time is meaningless).
type Wall struct {
	start time.Time
	once  sync.Once
}

var _ Clock = (*Wall)(nil)

func (c *Wall) init() { c.once.Do(func() { c.start = time.Now() }) }

// Now returns the elapsed wall time since the first use of the clock.
func (c *Wall) Now() time.Duration {
	c.init()
	return time.Since(c.start)
}

// Advance returns the current wall time; real time cannot be advanced.
func (c *Wall) Advance(time.Duration) time.Duration { return c.Now() }
