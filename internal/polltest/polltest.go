// Package polltest is the tests' one real-time poll, for what no clock
// drives: a goroutine parking, a connection closing, a worker recycling a
// buffer. A test waiting for time to pass advances a simclock.Virtual.
package polltest

import (
	"testing"
	"time"

	"repro/internal/rpc"
)

// Eventually calls cond every millisecond until it holds or five seconds
// passed, and reports whether it held.
func Eventually(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// Until is Eventually that fails the test when cond never holds.
func Until(tb testing.TB, what string, cond func() bool) {
	tb.Helper()
	if !Eventually(cond) {
		tb.Fatalf("timed out waiting for %s", what)
	}
}

// Recv returns the next value from ch, failing the test when none arrives
// within five seconds: a guard that turns a hang into a failure.
func Recv[T any](tb testing.TB, ch <-chan T, what string) T {
	tb.Helper()
	t := time.NewTimer(5 * time.Second)
	defer t.Stop()
	select {
	case v := <-ch:
		return v
	case <-t.C:
		tb.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// SettledBuffers waits until the wire-buffer ledger's gets-puts (a server
// worker recycles a request body just after the client sees the reply) has
// held for ten polls, and returns it.
func SettledBuffers(tb testing.TB) int64 {
	tb.Helper()
	last, stable := outstanding(), 0
	Until(tb, "the buffer ledger to settle", func() bool {
		if d := outstanding(); d != last {
			last, stable = d, 0
		}
		stable++
		return stable > 10
	})
	return last
}

// BuffersBalance waits until the ledger's gets-puts is want.
func BuffersBalance(tb testing.TB, want int64, what string) {
	tb.Helper()
	got := outstanding()
	if !Eventually(func() bool { got = outstanding(); return got == want }) {
		tb.Fatalf("%s: pooled buffers out of balance: gets-puts = %d, want %d", what, got, want)
	}
}

func outstanding() int64 {
	gets, puts := rpc.BufferBalance()
	return gets - puts
}
