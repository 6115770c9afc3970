// Package simclock provides a virtual clock used to account for simulated
// device time deterministically.
//
// All disk-cost accounting in the repository runs on a Clock rather than the
// wall clock: a simulated seek "takes" time by advancing the clock, so
// benchmarks are fast, reproducible, and independent of host load. The same
// Clock interface, timers included, drives every decision and wait made by
// time — lock timeouts, leases, periodic sweeps, retry backoff — so a test
// hands the owner a Virtual and calls Advance instead of sleeping.
package simclock

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is a source of time with timers: the one clock type of everything
// that decides or waits by time.
//
// Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current time.
	Now() time.Duration
	// AfterFunc calls f once the clock has moved d past Now. stop cancels
	// the call and reports whether it did; once f has started, stop
	// returns false and does not wait for it.
	AfterFunc(d time.Duration, f func()) (stop func() bool)
}

// Or returns c, or a fresh Wall when c is nil: an owner's zero clock means
// wall time.
func Or(c Clock) Clock {
	if c == nil {
		return &Wall{}
	}
	return c
}

// Virtual is the manual clock: time moves only when Advance is called, and
// Advance runs every timer due by the new instant, in time order, on the
// calling goroutine, before it returns. A timer runs with Now reading its
// due instant, so a timer that re-arms itself lands on the same grid. The
// zero value is ready to use and starts at 0.
type Virtual struct {
	mu  sync.Mutex
	now time.Duration
	// end is what every Advance so far adds up to. now catches up with it
	// once the timers due by it have run.
	end    time.Duration
	timers timerHeap
	seq    uint64     // arming order: equal due instants fire first-armed first
	armed  *sync.Cond // broadcast on every arming, for WaitTimers; nil until used
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

// Advance moves the clock forward by d, runs the timers due by the new
// instant, and returns the new time. It panics if d is negative. With no
// timer armed it costs one uncontended lock.
func (c *Virtual) Advance(d time.Duration) time.Duration {
	if d < 0 {
		panic("simclock: negative advance")
	}
	c.mu.Lock()
	c.end += d
	for len(c.timers) > 0 && c.timers[0].due <= c.end {
		t := heap.Pop(&c.timers).(*vtimer)
		if t.due > c.now {
			c.now = t.due
		}
		c.mu.Unlock()
		t.f()
		c.mu.Lock()
	}
	if c.end > c.now {
		c.now = c.end
	}
	now := c.now
	c.mu.Unlock()
	return now
}

// AfterFunc arms f to run inside the Advance that reaches Now()+d.
func (c *Virtual) AfterFunc(d time.Duration, f func()) (stop func() bool) {
	c.mu.Lock()
	c.seq++
	t := &vtimer{due: c.now + d, seq: c.seq, f: f}
	heap.Push(&c.timers, t)
	if c.armed != nil {
		c.armed.Broadcast()
	}
	c.mu.Unlock()
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		if t.index < 0 {
			return false
		}
		heap.Remove(&c.timers, t.index)
		return true
	}
}

// WaitTimers blocks until at least n timers are armed: a test calls it to
// know that the goroutine it started is parked on the clock before it calls
// Advance.
func (c *Virtual) WaitTimers(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.armed == nil {
		c.armed = sync.NewCond(&c.mu)
	}
	for len(c.timers) < n {
		c.armed.Wait()
	}
}

// vtimer is one armed Virtual timer; index is its heap slot, -1 once it
// fired or was stopped.
type vtimer struct {
	due   time.Duration
	seq   uint64
	f     func()
	index int
}

// timerHeap orders armed timers by due instant, then arming order.
type timerHeap []*vtimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	return h[i].due < h[j].due || (h[i].due == h[j].due && h[i].seq < h[j].seq)
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *timerHeap) Push(x any) {
	t := x.(*vtimer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	t.index = -1
	return t
}

// OpClock is a device clock: it accumulates charged access time, and its
// users bracket each charged operation so an overlap-aware accounting layer
// (Group) can tell concurrent operations from sequential ones. BeginOp(cost)
// charges cost virtual time at the start of the operation; EndOp marks its
// completion. Nothing waits on a device clock, so it has no timers.
type OpClock interface {
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

// Fanout is the scatter-gather layers' one fan-out: it runs the tasks
// concurrently inside one batch of b (nil: no batch) and returns the first
// error in task order. A single task runs alone, unbatched. The first task
// runs on the caller's goroutine and each other on one of its own; Fanout
// waits for every task, also while the first unwinds, and then raises a
// panic another task ended with again on the caller, so a crash point
// reached in any task unwinds to the caller's fault.Run.
func Fanout(b Batcher, tasks []func() error) error {
	switch len(tasks) {
	case 0:
		return nil
	case 1:
		return tasks[0]()
	}
	if b != nil {
		b.EnterBatch()
		defer b.LeaveBatch()
	}
	errs := make([]error, len(tasks))
	panics := make([]any, len(tasks))
	var wg sync.WaitGroup
	for i := 1; i < len(tasks); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			errs[i] = tasks[i]()
		}(i)
	}
	func() {
		defer wg.Wait()
		errs[0] = tasks[0]()
	}()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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

// Wall is a Clock backed by the real monotonic clock and the runtime's
// timers, for running the same code against real time (e.g. in the TCP
// server, where simulated time is meaningless).
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

// AfterFunc runs f on its own goroutine after d of wall time.
func (c *Wall) AfterFunc(d time.Duration, f func()) (stop func() bool) {
	return time.AfterFunc(d, f).Stop
}
