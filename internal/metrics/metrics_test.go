package metrics

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestAddAndGet(t *testing.T) {
	s := NewSet()
	s.Counter(DiskReferences).Add(3)
	s.Counter(DiskReferences).Inc()
	if got := s.Get(DiskReferences); got != 4 {
		t.Fatalf("Get = %d, want 4", got)
	}
	if got := s.Get("never.touched"); got != 0 {
		t.Fatalf("Get untouched = %d, want 0", got)
	}
}

func TestNilSetIsSafe(t *testing.T) {
	var s *Set
	s.Counter("x").Add(1)
	s.Counter("x").Inc()
	s.AddSimTime(time.Second)
	if got := s.Get("x"); got != 0 {
		t.Fatalf("nil set Get = %d, want 0", got)
	}
	if s.Snapshot() != nil {
		t.Fatal("nil set Snapshot should be nil")
	}
	s.Reset()
}

func TestSimTime(t *testing.T) {
	s := NewSet()
	s.AddSimTime(5 * time.Millisecond)
	s.AddSimTime(7 * time.Millisecond)
	if got := s.SimTime(); got != 12*time.Millisecond {
		t.Fatalf("SimTime = %v, want 12ms", got)
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	s := NewSet()
	s.Counter("a").Inc()
	snap := s.Snapshot()
	snap["a"] = 99
	if got := s.Get("a"); got != 1 {
		t.Fatalf("mutating snapshot affected set: got %d", got)
	}
}

func TestDiff(t *testing.T) {
	s := NewSet()
	s.Counter("a").Add(2)
	prev := s.Snapshot()
	s.Counter("a").Add(3)
	s.Counter("b").Add(1)
	d := s.Diff(prev)
	if d["a"] != 3 || d["b"] != 1 {
		t.Fatalf("Diff = %v, want a:3 b:1", d)
	}
	if len(d) != 2 {
		t.Fatalf("Diff has %d entries, want 2 (zero deltas omitted)", len(d))
	}
}

func TestReset(t *testing.T) {
	s := NewSet()
	s.Counter("a").Inc()
	s.AddSimTime(time.Second)
	s.Reset()
	if s.Get("a") != 0 || s.SimTime() != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestStringSorted(t *testing.T) {
	s := NewSet()
	s.Counter("zzz").Inc()
	s.Counter("aaa").Inc()
	out := s.String()
	if !strings.Contains(out, "aaa") || !strings.Contains(out, "zzz") {
		t.Fatalf("String missing counters: %q", out)
	}
	if strings.Index(out, "aaa") > strings.Index(out, "zzz") {
		t.Fatalf("String not sorted: %q", out)
	}
}

func TestHitRate(t *testing.T) {
	if got := HitRate(0, 0); got != 0 {
		t.Fatalf("HitRate(0,0) = %v, want 0", got)
	}
	if got := HitRate(3, 1); got != 0.75 {
		t.Fatalf("HitRate(3,1) = %v, want 0.75", got)
	}
}

func TestConcurrentAdd(t *testing.T) {
	s := NewSet()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				s.Counter("c").Inc()
			}
		}()
	}
	wg.Wait()
	if got := s.Get("c"); got != 8000 {
		t.Fatalf("concurrent adds lost updates: got %d, want 8000", got)
	}
}

func TestCounterHandleSurvivesReset(t *testing.T) {
	s := NewSet()
	c := s.Counter(DiskReferences)
	c.Add(3)
	c.Inc()
	if got := s.Get(DiskReferences); got != 4 {
		t.Fatalf("Get after handle adds = %d, want 4", got)
	}
	if s.Counter(DiskReferences) != c {
		t.Fatal("a second Counter call for the same name returned another handle")
	}
	s.Reset()
	if got := s.Get(DiskReferences); got != 0 {
		t.Fatalf("Get after Reset = %d, want 0", got)
	}
	c.Inc()
	s.Counter(DiskReferences).Inc()
	if got := s.Get(DiskReferences); got != 2 {
		t.Fatalf("Get after Reset and two increments = %d, want 2: the handle went stale", got)
	}
}

// TestSnapshotOmitsZeroCounters: a counter resolved but not incremented, or
// zeroed by Reset, is reported by no reader, as if it never existed.
func TestSnapshotOmitsZeroCounters(t *testing.T) {
	s := NewSet()
	s.Counter("resolved.only")
	s.Counter("b").Add(2)
	s.Counter("a").Inc()
	if snap := s.Snapshot(); len(snap) != 2 || snap["a"] != 1 || snap["b"] != 2 {
		t.Fatalf("Snapshot = %v, want map[a:1 b:2]", snap)
	}
	if got, want := s.String(), fmt.Sprintf("%-28s %d\n%-28s %d\n", "a", 1, "b", 2); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	prev := s.Snapshot()
	s.Counter("a").Inc()
	if d := s.Diff(prev); len(d) != 1 || d["a"] != 1 {
		t.Fatalf("Diff = %v, want map[a:1]", d)
	}
	s.Reset()
	if snap := s.Snapshot(); len(snap) != 0 {
		t.Fatalf("Snapshot after Reset = %v, want empty", snap)
	}
	if got := s.String(); got != "" {
		t.Fatalf("String after Reset = %q, want empty", got)
	}
	// Diff walks the current counters, so a reset one drops out of it, as it
	// did when Reset emptied the set.
	if d := s.Diff(prev); len(d) != 0 {
		t.Fatalf("Diff after Reset = %v, want empty", d)
	}
}

func TestNilSetGivesNoOpHandle(t *testing.T) {
	var s *Set
	c := s.Counter(DiskReferences)
	if c != nil {
		t.Fatalf("nil set handed out a live handle %p", c)
	}
	c.Inc()
	c.Add(5)
	if got := s.Get(DiskReferences); got != 0 {
		t.Fatalf("nil set Get = %d, want 0", got)
	}
}

// TestAddRacesResetAndSnapshot runs handle and by-name increments against
// Reset and Snapshot (meaningful under -race): every count lands on one side
// of a Reset or the other, none is lost after the last one.
func TestAddRacesResetAndSnapshot(t *testing.T) {
	s := NewSet()
	c := s.Counter("c")
	const writers, adds = 4, 2000
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for j := 0; j < adds; j++ {
				if i%2 == 0 {
					c.Inc()
				} else {
					s.Counter("c").Inc()
				}
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for j := 0; j < 200; j++ {
			if v := s.Snapshot()["c"]; v < 0 || v > writers*adds {
				t.Errorf("Snapshot read c = %d, outside [0, %d]", v, writers*adds)
			}
			if j%20 == 0 {
				s.Reset()
			}
		}
	}()
	close(start)
	wg.Wait()
	s.Reset()
	c.Add(7)
	if got := s.Get("c"); got != 7 {
		t.Fatalf("after the race and a quiet Reset, Get = %d, want 7", got)
	}
}

// TestStripeOfSpreadsNeighbouringStacks: goroutine stacks are allocated a
// whole number of 2 KiB units apart, so the stack-address hint must put
// neighbouring stacks — 2, 4, 8, 16 or 32 KiB apart — on different stripes,
// and as many stacks in a row as there are stripes on every stripe.
func TestStripeOfSpreadsNeighbouringStacks(t *testing.T) {
	for _, spacing := range []uintptr{2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10} {
		for base := uintptr(0xc000000000); base < 0xc000000000+256*spacing; base += spacing {
			if a, b := stripeOf(base), stripeOf(base+spacing); a == b {
				t.Fatalf("stacks %#x and %#x (%d KiB apart) share stripe %d", base, base+spacing, spacing>>10, a)
			}
			seen := map[int]bool{}
			for i := uintptr(0); i < stripes; i++ {
				seen[stripeOf(base+i*spacing)] = true
			}
			if len(seen) != stripes {
				t.Fatalf("%d stacks %d KiB apart from %#x use %d stripes", stripes, spacing>>10, base, len(seen))
			}
		}
	}
	// Within one 2 KiB stack the hint does not move with call depth.
	if a, b := stripeOf(0xc000001800), stripeOf(0xc000001fff); a != b {
		t.Errorf("addresses within one 2 KiB stack hash to stripes %d and %d", a, b)
	}
}

// BenchmarkCounterInc is one increment through a resolved handle, from one
// goroutine and from GOMAXPROCS goroutines at once (RunParallel), which must
// land on different stripes to stay as cheap.
func BenchmarkCounterInc(b *testing.B) {
	c := NewSet().Counter("bench")
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Inc()
			}
		})
	})
}
