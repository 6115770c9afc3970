package simclock

import (
	"context"
	"sync"
	"time"
)

// Every calls fn every d on clock c until fn returns false or stop is
// called. The first call comes one period after Every returns, as with
// time.NewTicker, and a call that overruns the period drops the ticks it
// missed rather than queueing them. Calls never overlap: each runs on the
// goroutine that fires the clock's timer (the runtime's on a Wall, the
// Advance caller's on a Virtual).
//
// stop is idempotent and safe to call from several goroutines at once; it
// returns only once no call of fn is running, and none starts after it
// returns. fn must not call stop: stop waits for fn, which is the one
// calling it. Every panics if d is not positive.
func Every(c Clock, d time.Duration, fn func() bool) (stop func()) {
	if d <= 0 {
		panic("simclock: non-positive period")
	}
	var (
		run    sync.Mutex // held while fn runs
		mu     sync.Mutex // guards done and cancel
		done   bool
		cancel func() bool
		next   = c.Now() + d
		tick   func()
	)
	tick = func() {
		run.Lock()
		defer run.Unlock()
		mu.Lock()
		stopped := done
		mu.Unlock()
		if stopped {
			return
		}
		more := fn()
		now := c.Now()
		for next <= now {
			next += d
		}
		mu.Lock()
		if !more {
			done = true
		} else if !done {
			cancel = c.AfterFunc(next-now, tick)
		}
		mu.Unlock()
	}
	mu.Lock()
	cancel = c.AfterFunc(d, tick)
	mu.Unlock()
	return func() {
		mu.Lock()
		done = true
		cancel()
		mu.Unlock()
		run.Lock() // waits out a call of fn in flight
		// The runtime keeps a stopped timer, and the tick it would run,
		// until it next tidies its timer heap: drop fn, so what fn holds
		// is garbage from the next collection on.
		fn = nil
		run.Unlock()
	}
}

// Backoff is an exponential wait between retries on Clock (nil: wall time):
// the first Wait waits Min, and each Wait doubles the next one while it is
// still below Max. The last doubling may pass Max, and the wait then stays
// there: Min 5 ms, Max 100 ms waits 5, 10, 20, 40, 80, 160, 160, … ms. A
// Backoff literal starts at Min; it belongs to one retry loop and is not
// safe for concurrent use.
type Backoff struct {
	Clock    Clock
	Min, Max time.Duration
	next     time.Duration
}

// Wait waits the current wait and doubles the next one. It returns
// ctx.Err() as soon as ctx is done, without finishing the wait.
func (b *Backoff) Wait(ctx context.Context) error {
	if b.next == 0 {
		b.next = b.Min
	}
	d := b.next
	if b.next < b.Max {
		b.next *= 2
	}
	fired := make(chan struct{})
	stop := Or(b.Clock).AfterFunc(d, func() { close(fired) })
	select {
	case <-fired:
		return nil
	case <-ctx.Done():
		stop()
		return ctx.Err()
	}
}
