package simclock

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or a generous deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestEveryNoCallAfterStop(t *testing.T) {
	var calls atomic.Int64
	var stopped atomic.Bool
	stop := Every(time.Millisecond, func() bool {
		if stopped.Load() {
			t.Error("fn called after stop returned")
		}
		calls.Add(1)
		return true
	})
	waitFor(t, "three calls", func() bool { return calls.Load() >= 3 })
	stop()
	stopped.Store(true)
	n := calls.Load()
	time.Sleep(20 * time.Millisecond)
	if got := calls.Load(); got != n {
		t.Fatalf("calls went %d -> %d after stop", n, got)
	}
}

func TestEveryFirstCallAfterOnePeriod(t *testing.T) {
	const period = 50 * time.Millisecond
	first := make(chan time.Duration, 1)
	start := time.Now()
	stop := Every(period, func() bool {
		first <- time.Since(start)
		return false
	})
	defer stop()
	if d := <-first; d < period {
		t.Fatalf("first call after %v, want at least one period (%v)", d, period)
	}
}

func TestEveryFalseEndsLoop(t *testing.T) {
	var calls atomic.Int64
	stop := Every(time.Millisecond, func() bool {
		calls.Add(1)
		return false
	})
	waitFor(t, "the first call", func() bool { return calls.Load() >= 1 })
	time.Sleep(20 * time.Millisecond)
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn called %d times after returning false, want 1", got)
	}
	returned := make(chan struct{})
	go func() {
		stop()
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("stop hung after the loop ended on its own")
	}
}

func TestEveryConcurrentStop(t *testing.T) {
	for round := 0; round < 200; round++ {
		stop := Every(time.Hour, func() bool { return true })
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

func TestBackoffDoublesToItsCap(t *testing.T) {
	b := Backoff{Min: time.Microsecond, Max: 20 * time.Microsecond}
	// The doubling stops once the wait reaches or passes Max: 16 µs is
	// still below 20 µs, so the wait settles at 32 µs.
	want := []time.Duration{1, 2, 4, 8, 16, 32, 32, 32}
	for i, w := range want {
		if b.next != 0 && b.next != w*time.Microsecond {
			t.Fatalf("wait %d = %v, want %v", i, b.next, w*time.Microsecond)
		}
		if err := b.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if b.next != 32*time.Microsecond {
		t.Fatalf("settled wait = %v, want 32µs", b.next)
	}
}

func TestBackoffReturnsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := Backoff{Min: time.Hour, Max: time.Hour}
	if err := b.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait on a cancelled context = %v, want context.Canceled", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		b := Backoff{Min: time.Hour, Max: time.Hour}
		errc <- b.Wait(ctx)
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait cancelled mid-sleep = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not return after cancel")
	}
}
