package simclock

import (
	"sync"
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
	a.Advance(10 * time.Millisecond)
	b.Advance(5 * time.Millisecond)
	a.Advance(1 * time.Millisecond)
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
	a.Advance(2 * time.Millisecond) // sequential prelude
	g.EnterBatch()
	a.Advance(10 * time.Millisecond)
	b.Advance(7 * time.Millisecond)
	g.LeaveBatch()
	// Batch ops overlap: elapsed = prelude + max(10ms, 7ms).
	if got := g.Elapsed(); got != 12*time.Millisecond {
		t.Fatalf("Elapsed = %v, want 12ms (batched ops overlap)", got)
	}
	// A later sequential op starts after the batch completes.
	b.Advance(1 * time.Millisecond)
	if got := g.Elapsed(); got != 13*time.Millisecond {
		t.Fatalf("Elapsed = %v, want 13ms", got)
	}
}

func TestGroupSameMemberSerializesInBatch(t *testing.T) {
	g := NewGroup()
	a := g.NewMember()
	b := g.NewMember()
	g.EnterBatch()
	a.Advance(3 * time.Millisecond)
	a.Advance(3 * time.Millisecond) // same spindle: must chain, not overlap
	b.Advance(4 * time.Millisecond)
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
	g := NewGroup()
	var c OpClock = g.NewMember()
	if got := c.Advance(time.Millisecond); got != time.Millisecond {
		t.Fatalf("Advance returned %v, want 1ms", got)
	}
}
