package simclock

import (
	"context"
	"sync"
	"time"
)

// Every calls fn on its own goroutine every d of wall time until fn returns
// false or stop is called. The first call comes one period after Every
// returns, as with time.NewTicker, and a call that overruns the period drops
// the ticks it missed rather than queueing them.
//
// stop is idempotent and safe to call from several goroutines at once; it
// returns only once the goroutine has exited, so no call of fn starts after
// it returns. fn must not call stop: stop waits for fn's goroutine, which is
// the one calling it. Every panics if d is not positive.
func Every(d time.Duration, fn func() bool) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	t := time.NewTicker(d)
	go func() {
		defer close(done)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
			}
			if !fn() {
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(quit) })
		<-done
	}
}

// Backoff is an exponential wait between retries: the first Wait sleeps
// Min, and each Wait doubles the next one while it is still below Max. The
// last doubling may pass Max, and the wait then stays there: Min 5 ms, Max
// 100 ms sleeps 5, 10, 20, 40, 80, 160, 160, … ms. A Backoff literal starts
// at Min; it belongs to one retry loop and is not safe for concurrent use.
type Backoff struct {
	Min, Max time.Duration
	next     time.Duration
}

// Wait sleeps the current wait and doubles the next one. It returns
// ctx.Err() as soon as ctx is done, without finishing the sleep; a context
// that can never be done (context.Background) costs no timer.
func (b *Backoff) Wait(ctx context.Context) error {
	if b.next == 0 {
		b.next = b.Min
	}
	d := b.next
	if b.next < b.Max {
		b.next *= 2
	}
	if ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
