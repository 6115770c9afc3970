package simclock

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestVirtualTimersFireInTimeOrder(t *testing.T) {
	c := New()
	got := ""
	c.AfterFunc(30*time.Millisecond, func() { got += "c" })
	first := c.AfterFunc(10*time.Millisecond, func() {
		got += "a"
		if now := c.Now(); now != 10*time.Millisecond {
			t.Errorf("timer ran at Now() = %v, want its due instant 10ms", now)
		}
		// Re-armed from inside Advance, due at 15 ms: still fires in this Advance.
		c.AfterFunc(5*time.Millisecond, func() { got += "b" })
	})
	stopped := c.AfterFunc(20*time.Millisecond, func() { got += "x" })
	if !stopped() || stopped() {
		t.Fatal("stop of an armed timer must report true once, then false")
	}
	c.AfterFunc(40*time.Millisecond, func() { got += "d" })
	if now := c.Advance(35 * time.Millisecond); now != 35*time.Millisecond || got != "abc" {
		t.Fatalf("Advance to %v fired %q, want 35ms and abc", now, got)
	}
	if first() {
		t.Fatal("stop after the timer fired reported true")
	}
	if c.Advance(5 * time.Millisecond); got != "abcd" {
		t.Fatalf("fired %q by 40ms, want abcd", got)
	}
}

// every starts a loop on a fresh virtual clock that records the instant of
// each call and returns more(call count).
func every(d time.Duration, more func(int) bool) (c *Virtual, at *[]time.Duration, stop func()) {
	c, at = New(), new([]time.Duration)
	stop = Every(c, d, func() bool {
		*at = append(*at, c.Now())
		return more(len(*at))
	})
	return c, at, stop
}

func always(int) bool { return true }

func TestEveryNoCallAfterStop(t *testing.T) {
	c, at, stop := every(time.Millisecond, always)
	c.Advance(3 * time.Millisecond)
	stop()
	stop()
	c.Advance(10 * time.Millisecond)
	if len(*at) != 3 {
		t.Fatalf("%d calls, want 3: none after stop", len(*at))
	}
}

func TestEveryFirstCallAfterOnePeriod(t *testing.T) {
	const period = 50 * time.Millisecond
	c, at, stop := every(period, always)
	defer stop()
	c.Advance(period - 1)
	if len(*at) != 0 {
		t.Fatalf("called at %v, before one period", *at)
	}
	c.Advance(period + period/2 + 1)
	if len(*at) != 2 || (*at)[0] != period || (*at)[1] != 2*period {
		t.Fatalf("called at %v, want [%v %v]", *at, period, 2*period)
	}
}

func TestEveryOverrunDropsMissedTicks(t *testing.T) {
	var c *Virtual // assigned by every before the first call
	c, at, stop := every(10*time.Millisecond, func(n int) bool {
		if n == 1 {
			c.Advance(25 * time.Millisecond) // the first call overruns two ticks
		}
		return true
	})
	defer stop()
	c.Advance(10 * time.Millisecond) // to 35 ms with the overrun
	c.Advance(10 * time.Millisecond)
	if len(*at) != 2 || (*at)[1] != 40*time.Millisecond {
		t.Fatalf("called at %v, want [10ms 40ms]: the ticks at 20 and 30 ms are dropped", *at)
	}
}

func TestEveryFalseEndsLoop(t *testing.T) {
	c, at, stop := every(time.Millisecond, func(int) bool { return false })
	c.Advance(20 * time.Millisecond)
	if len(*at) != 1 {
		t.Fatalf("fn called %d times after returning false, want 1", len(*at))
	}
	stop() // returns at once: the loop already ended
}

func TestEveryConcurrentStop(t *testing.T) {
	for round := 0; round < 200; round++ {
		_, _, stop := every(time.Hour, always)
		var wg sync.WaitGroup
		gate := make(chan struct{})
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-gate
				stop()
			}()
		}
		close(gate)
		done := make(chan struct{})
		go func() {
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("concurrent stops hung")
		}
	}
}

// TestEveryOnWall runs the loop on the runtime's timers: it ticks, and no call
// starts after stop returns.
func TestEveryOnWall(t *testing.T) {
	ticks := make(chan struct{}, 3) // the three ticks read below
	var stopped atomic.Bool
	stop := Every(&Wall{}, time.Millisecond, func() bool {
		if stopped.Load() {
			t.Error("fn called after stop returned")
		}
		select {
		case ticks <- struct{}{}:
		default:
		}
		return true
	})
	for i := 0; i < 3; i++ {
		<-ticks
	}
	stop()
	stopped.Store(true)
}

func TestBackoffDoublesToItsCap(t *testing.T) {
	c := New()
	b := Backoff{Clock: c, Min: time.Microsecond, Max: 20 * time.Microsecond}
	// The doubling stops once the wait reaches or passes Max: 16 µs is
	// still below 20 µs, so the wait settles at 32 µs.
	for i, w := range []time.Duration{1, 2, 4, 8, 16, 32, 32, 32} {
		done := make(chan error, 1)
		go func() { done <- b.Wait(context.Background()) }()
		c.WaitTimers(1)
		c.Advance(w*time.Microsecond - 1)
		select {
		case <-done:
			t.Fatalf("wait %d returned before %v", i, w*time.Microsecond)
		default:
		}
		c.Advance(1)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestBackoffReturnsOnCancel(t *testing.T) {
	c := New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := Backoff{Clock: c, Min: time.Hour, Max: time.Hour}
	if err := b.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait on a cancelled context = %v, want context.Canceled", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- b.Wait(ctx) }()
	c.WaitTimers(1)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait cancelled mid-wait = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not return after cancel")
	}
	c.Advance(2 * time.Hour) // the cancelled wait's timer is gone
}

// TestEveryStopReleasesFn: the runtime keeps a stopped timer until it next
// tidies its timer heap, and the timer holds the loop's tick; stop drops fn,
// so one collection after stop frees what only fn referenced.
func TestEveryStopReleasesFn(t *testing.T) {
	freed := make(chan struct{})
	stop := func() func() {
		owner := &struct{ buf [64]byte }{}
		runtime.SetFinalizer(owner, func(*struct{ buf [64]byte }) { close(freed) })
		return Every(&Wall{}, time.Hour, func() bool { return owner.buf[0] == 0 })
	}()
	stop()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(time.Second):
		t.Fatal("a stopped loop still pins its function's captures after a collection")
	}
}
