package rpc

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// TestTransientErrorNotCached pins the failover-critical cache rule: a
// handler refusal wrapped in Transient is NOT stored in the endpoint's
// duplicate cache, so a same-sequence retry re-executes the handler and
// succeeds once the refusing condition passes (an unpromoted backup
// becoming primary, a recall completing). Without the exemption the first
// refusal would answer every retransmission of that sequence number
// forever. The Client only retries; where a retry goes is its predicate's
// business (the cluster router rebinds on "not primary", which its
// failover tests cover).
func TestTransientErrorNotCached(t *testing.T) {
	var mu sync.Mutex
	execs := 0
	ep := NewEndpoint(func(_ context.Context, req Request) ([]byte, error) {
		mu.Lock()
		defer mu.Unlock()
		execs++
		if execs < 3 { // the refusing condition passes on the third try
			return nil, Transient(errors.New("not primary"))
		}
		return []byte("served"), nil
	})
	c := NewClient(NewInProc(ep, FaultConfig{}), 1, 10, nil)
	c.SetRetryOn(func(se *ServiceError) bool { return se.Message == "not primary" })

	out, err := c.Call(context.Background(), "op", []byte("x"))
	if err != nil || string(out) != "served" {
		t.Fatalf("Call across a transient refusal = %q, %v", out, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if execs < 3 {
		t.Fatalf("handler ran %d times; a transient refusal must re-execute on retry, not answer from cache", execs)
	}
}

// TestPermanentErrorStillCached is the contrast case: an ordinary handler
// error is cached like any reply, so retries of the same sequence number
// are answered without re-execution.
func TestPermanentErrorStillCached(t *testing.T) {
	var mu sync.Mutex
	execs := 0
	ep := NewEndpoint(func(_ context.Context, req Request) ([]byte, error) {
		mu.Lock()
		defer mu.Unlock()
		execs++
		return nil, errors.New("no such file")
	})
	c := NewClient(NewInProc(ep, FaultConfig{}), 1, 4, nil)
	c.SetRetryOn(func(se *ServiceError) bool { return true })

	_, err := c.Call(context.Background(), "op", nil)
	var se *ServiceError
	if !errors.As(err, &se) || se.Message != "no such file" {
		t.Fatalf("Call = %v, want the cached service error", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if execs != 1 {
		t.Fatalf("handler ran %d times; permanent errors must be served from the duplicate cache", execs)
	}
}

// TestTransientUnwraps: the wrapper stays errors-compatible so handlers can
// classify and loggers can match the underlying cause.
func TestTransientUnwraps(t *testing.T) {
	base := errors.New("base cause")
	w := Transient(base)
	if !errors.Is(w, base) {
		t.Fatal("Transient breaks errors.Is")
	}
	if w.Error() != base.Error() {
		t.Fatalf("Transient changes the message: %q", w.Error())
	}
	if isTransient(base) {
		t.Fatal("unwrapped error classified as transient")
	}
	if !isTransient(w) {
		t.Fatal("wrapped error not classified as transient")
	}
}
