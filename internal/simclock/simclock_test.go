package simclock

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestVirtualStartsAtZero(t *testing.T) {
	c := New()
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestVirtualAdvance(t *testing.T) {
	c := New()
	if got := c.Advance(5 * time.Millisecond); got != 5*time.Millisecond {
		t.Fatalf("Advance returned %v, want 5ms", got)
	}
	c.Advance(2 * time.Millisecond)
	if got := c.Now(); got != 7*time.Millisecond {
		t.Fatalf("Now() = %v, want 7ms", got)
	}
}

func TestVirtualAdvanceZero(t *testing.T) {
	c := New()
	c.Advance(0)
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestVirtualNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	New().Advance(-1)
}

func TestVirtualConcurrentAdvance(t *testing.T) {
	c := New()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				c.Advance(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	want := time.Duration(workers*perWorker) * time.Microsecond
	if got := c.Now(); got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestWallMonotonic(t *testing.T) {
	c := &Wall{}
	a := c.Now()
	b := c.Now()
	if b < a {
		t.Fatalf("wall clock went backwards: %v then %v", a, b)
	}
}

func TestGroupSequentialSums(t *testing.T) {
	g := NewGroup()
	a := g.NewMember()
	b := g.NewMember()
	op(a, 10*time.Millisecond)
	op(b, 5*time.Millisecond)
	op(a, 1*time.Millisecond)
	if got := g.Elapsed(); got != 16*time.Millisecond {
		t.Fatalf("Elapsed = %v, want 16ms (sequential ops sum)", got)
	}
	if got := a.Now(); got != 11*time.Millisecond {
		t.Fatalf("member a busy = %v, want 11ms", got)
	}
	if got := b.Now(); got != 5*time.Millisecond {
		t.Fatalf("member b busy = %v, want 5ms", got)
	}
}

func TestGroupBatchOverlaps(t *testing.T) {
	g := NewGroup()
	a := g.NewMember()
	b := g.NewMember()
	op(a, 2*time.Millisecond) // sequential prelude
	g.EnterBatch()
	op(a, 10*time.Millisecond)
	op(b, 7*time.Millisecond)
	g.LeaveBatch()
	// Batch ops overlap: elapsed = prelude + max(10ms, 7ms).
	if got := g.Elapsed(); got != 12*time.Millisecond {
		t.Fatalf("Elapsed = %v, want 12ms (batched ops overlap)", got)
	}
	// A later sequential op starts after the batch completes.
	op(b, 1*time.Millisecond)
	if got := g.Elapsed(); got != 13*time.Millisecond {
		t.Fatalf("Elapsed = %v, want 13ms", got)
	}
}

func TestGroupSameMemberSerializesInBatch(t *testing.T) {
	g := NewGroup()
	a := g.NewMember()
	b := g.NewMember()
	g.EnterBatch()
	op(a, 3*time.Millisecond)
	op(a, 3*time.Millisecond) // same spindle: must chain, not overlap
	op(b, 4*time.Millisecond)
	g.LeaveBatch()
	if got := g.Elapsed(); got != 6*time.Millisecond {
		t.Fatalf("Elapsed = %v, want 6ms (same member chains)", got)
	}
	if got := a.Now(); got != 6*time.Millisecond {
		t.Fatalf("member a busy = %v, want 6ms", got)
	}
}

func TestGroupBeginEndOpWindow(t *testing.T) {
	g := NewGroup()
	a := g.NewMember()
	b := g.NewMember()
	// Overlapping op windows (no batch): b begins while a is still open.
	a.BeginOp(10 * time.Millisecond)
	b.BeginOp(4 * time.Millisecond)
	a.EndOp()
	b.EndOp()
	if got := g.Elapsed(); got != 10*time.Millisecond {
		t.Fatalf("Elapsed = %v, want 10ms (overlapping op windows)", got)
	}
}

func TestGroupMemberImplementsClock(t *testing.T) {
	m := NewGroup().NewMember()
	var c OpClock = m
	c.BeginOp(time.Millisecond)
	c.EndOp()
	if got := m.Now(); got != time.Millisecond {
		t.Fatalf("member busy = %v, want 1ms", got)
	}
}

// op charges d on m as one immediately completed operation.
func op(m *Member, d time.Duration) {
	m.BeginOp(d)
	m.EndOp()
}

// countingBatcher counts the batches a fan-out opens and closes.
type countingBatcher struct{ enter, leave atomic.Int32 }

func (b *countingBatcher) EnterBatch() { b.enter.Add(1) }
func (b *countingBatcher) LeaveBatch() { b.leave.Add(1) }

// TestFanout: the first error in task order comes back after every task
// ran inside one batch, and a panic in a task off the caller's goroutine is
// raised again on the caller once every task has finished.
func TestFanout(t *testing.T) {
	var b countingBatcher
	var ran atomic.Int32
	errA, errB := errors.New("a"), errors.New("b")
	task := func(err error) func() error {
		return func() error { ran.Add(1); return err }
	}
	if err := Fanout(&b, []func() error{task(nil), task(errA), task(errB)}); err != errA {
		t.Fatalf("Fanout = %v, want the first error in task order", err)
	}
	if ran.Load() != 3 || b.enter.Load() != 1 || b.leave.Load() != 1 {
		t.Fatalf("ran %d tasks in %d/%d batches, want 3 in 1", ran.Load(), b.enter.Load(), b.leave.Load())
	}

	ran.Store(0)
	got := func() (p any) {
		defer func() { p = recover() }()
		_ = Fanout(nil, []func() error{task(nil), func() error { panic("worker") }, task(nil)})
		return nil
	}()
	if got != "worker" || ran.Load() != 2 {
		t.Fatalf("recovered %v after %d other tasks, want the worker's panic after 2", got, ran.Load())
	}
}
