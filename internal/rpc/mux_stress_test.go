package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/metrics"
)

// TestMuxConcurrentSendsOneConnection: many goroutines share one multiplexed
// transport; every call gets its own response back (no cross-wiring of frame
// IDs) while all of them are in flight together.
func TestMuxConcurrentSendsOneConnection(t *testing.T) {
	h := newCountingHandler()
	ep := NewEndpoint(h.handle, WithWindow(4096))
	srv := Serve(listen(t), ep)
	defer func() { _ = srv.Close() }()
	tr := dial(t, srv)

	const goroutines, calls = 32, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := NewClient(tr, uint64(1000+g), 3, nil)
			for i := 0; i < calls; i++ {
				payload := fmt.Sprintf("g%d-i%d", g, i)
				got, err := c.Call(context.Background(), "m"+payload, []byte(payload))
				if err != nil {
					errs <- fmt.Errorf("goroutine %d call %d: %w", g, i, err)
					return
				}
				if string(got) != "echo:"+payload {
					errs <- fmt.Errorf("goroutine %d call %d: got %q", g, i, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < calls; i++ {
			m := fmt.Sprintf("mg%d-i%d", g, i)
			if n := h.count(m); n != 1 {
				t.Fatalf("%s executed %d times", m, n)
			}
		}
	}
}

// TestMuxStressWithInjectedFaults is the transport-concurrency stress test:
// many goroutines call through one multiplexed TCPTransport while the server
// randomly drops and delays requests at PtTCPServe. A dropped request's
// attempt deadline passes, the connection drops under every call pending on
// it, the Clients retry on a fresh one, and the duplicate-request cache must
// keep every logical call exactly-once — each method executes once and
// every caller sees its own echo. Run with -race to exercise the
// reader/writer/pending-map synchronization.
func TestMuxStressWithInjectedFaults(t *testing.T) {
	h := newCountingHandler()
	ep := NewEndpoint(h.handle, WithWindow(8192))
	inj := fault.NewInjector(1)
	srv := Serve(listen(t), ep, WithInjector(inj), WithWorkers(16))
	defer func() { _ = srv.Close() }()
	tr := dial(t, srv)

	const goroutines, calls = 24, 20
	run := func(prefix string) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				c := NewClient(tr, uint64(len(prefix))*10000+uint64(5000+g), 50, nil)
				c.SetAttemptTimeout(80 * time.Millisecond)
				for i := 0; i < calls; i++ {
					payload := fmt.Sprintf("g%d-i%d", g, i)
					got, err := c.Call(context.Background(), prefix+payload, []byte(payload))
					if err != nil {
						errs <- fmt.Errorf("goroutine %d call %d: %w", g, i, err)
						return
					}
					if string(got) != "echo:"+payload {
						errs <- fmt.Errorf("goroutine %d call %d: got %q", g, i, got)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		for g := 0; g < goroutines; g++ {
			for i := 0; i < calls; i++ {
				m := fmt.Sprintf("%sg%d-i%d", prefix, g, i)
				if n := h.count(m); n != 1 {
					t.Fatalf("%s executed %d times, want 1", m, n)
				}
			}
		}
	}

	// Phase 1 — drops: 60 decoded requests vanish before execution (the
	// paper's lost message); the client times out and retries until the
	// request lands.
	inj.Arm(PtTCPServe, fault.Action{Kind: fault.KindError, After: 3, Times: 60})
	run("drop-")
	if inj.Fired(PtTCPServe) == 0 {
		t.Fatal("no drops fired; the stress test exercised nothing")
	}

	// Phase 2 — delays past the attempt deadline: the effect happens but the
	// response arrives after the caller gave up, so the retry must be
	// answered by the duplicate cache (or wait on the in-flight original)
	// rather than re-executing.
	dropsFired := inj.Fired(PtTCPServe)
	inj.Arm(PtTCPServe, fault.Action{Kind: fault.KindDelay, Delay: 120 * time.Millisecond, After: 3, Times: 12})
	run("delay-")
	if inj.Fired(PtTCPServe) <= dropsFired {
		t.Fatal("no delays fired; the stress test exercised nothing")
	}
}

// TestMuxOverdueAttemptDropsConnection: an overdue attempt treats the peer
// as gone and drops its connection, so the other call pending on it fails as
// ErrDropped too, and that call's Client retry completes exactly once on a
// fresh connection.
func TestMuxOverdueAttemptDropsConnection(t *testing.T) {
	block, release := make(chan struct{}), make(chan struct{})
	started := make(chan struct{}, 1)
	h := newCountingHandler()
	met := metrics.NewSet()
	ep := NewEndpoint(func(ctx context.Context, req Request) ([]byte, error) {
		switch req.Method {
		case "slow":
			<-block
		case "other":
			started <- struct{}{}
			<-release
		}
		return h.handle(ctx, req)
	}, WithWindow(64), WithMetrics(met))
	srv := Serve(listen(t), ep)
	defer func() { _ = srv.Close() }()
	tr := dial(t, srv)
	defer close(block)
	conn := func() *muxConn {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		return tr.mc
	}

	c := NewClient(tr, 2, 3, met)
	c.SetAttemptTimeout(5 * time.Second)
	other := make(chan error, 1)
	go func() {
		got, err := c.Call(context.Background(), "other", []byte("x"))
		if err == nil && string(got) != "echo:x" {
			err = fmt.Errorf("got %q", got)
		}
		other <- err
	}()
	<-started // "other" is executing, its call pending on the connection
	first := conn()

	_, err := tr.SendWithDeadline(Request{ClientID: 1, Seq: 1, Method: "slow"}, time.Now().Add(60*time.Millisecond))
	if !errors.Is(err, ErrDropped) {
		t.Fatalf("overdue attempt = %v, want ErrDropped", err)
	}
	if !first.isDead() {
		t.Fatal("the connection outlived an overdue attempt")
	}
	close(release)
	if err := <-other; err != nil {
		t.Fatalf("the call pending beside the overdue one: %v", err)
	}
	if n := h.count("other"); n != 1 {
		t.Fatalf("the retried call executed %d times, want 1", n)
	}
	if r := met.Get(metrics.RPCRetries); r != 1 {
		t.Fatalf("%d retries, want 1: the pending call failed with the connection", r)
	}
	if conn() == first {
		t.Fatal("the retry did not re-dial")
	}
}

// TestMuxExpiredBodyRecycleRace checks that a caller's request body is never
// read after roundTrip returns: callers recycle their body the moment a call
// returns — on success and on an attempt that expired first — and
// immediately draw fresh buffers (often the same memory) for the next call.
// If any goroutine still read a returned call's body, it would read a buffer
// another goroutine is filling; run with -race to catch it.
func TestMuxExpiredBodyRecycleRace(t *testing.T) {
	ep := NewEndpoint(func(_ context.Context, req Request) ([]byte, error) {
		time.Sleep(2 * time.Millisecond) // outlive the client attempt deadline
		return []byte("ok"), nil
	}, WithWindow(4096))
	srv := Serve(listen(t), ep)
	defer func() { _ = srv.Close() }()
	tr := dial(t, srv)

	const goroutines, iters = 16, 120
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := NewClient(tr, uint64(7000+g), 1, nil)
			c.SetAttemptTimeout(time.Millisecond)
			for i := 0; i < iters; i++ {
				body := Buffer(512)
				for j := range body {
					body[j] = byte(i)
				}
				out, err := c.Call(context.Background(), "m", body)
				// The transport guarantees the body is the caller's again on
				// every outcome — success, expiry, teardown — so recycling
				// here must never race the writer.
				Recycle(body)
				if err == nil {
					c.ReleaseBody(out)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMuxStaleDeadlineMidFrame: the read deadline is left where an earlier,
// completed call armed it, so it can fire while a later response is half
// read. With no call overdue the read goes on: the response arrives whole
// and the connection survives.
func TestMuxStaleDeadlineMidFrame(t *testing.T) {
	ln := listen(t)
	defer func() { _ = ln.Close() }()
	const stale = 30 * time.Millisecond
	served, release := make(chan error, 1), make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer func() { _ = conn.Close() }()
		fr := newFrameReader(conn, DefaultMaxFrame)
		for i := 0; i < 2; i++ {
			frame, err := fr.read()
			if err != nil {
				served <- err
				return
			}
			resp := Response{Seq: frame.seq, Body: []byte(frame.method)}
			head, err := appendResponse(nil, frame.id, &resp, DefaultMaxFrame)
			if err != nil {
				served <- err
				return
			}
			out := append(head, resp.Body...)
			if i == 1 {
				// Half the frame, then a pause past the first call's
				// deadline, then the rest.
				if _, err := conn.Write(out[:len(out)/2]); err != nil {
					served <- err
					return
				}
				<-time.After(3 * stale)
				out = out[len(out)/2:]
			}
			if _, err := conn.Write(out); err != nil {
				served <- err
				return
			}
		}
		served <- nil
		<-release // keep the connection open until the client is checked
	}()
	tr, err := DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	first := tr.mc

	if resp, err := tr.SendWithDeadline(Request{ClientID: 1, Seq: 1, Method: "first"}, time.Now().Add(stale)); err != nil || string(resp.Body) != "first" {
		t.Fatalf("first call = %q, %v", resp.Body, err)
	}
	resp, err := tr.SendWithDeadline(Request{ClientID: 1, Seq: 2, Method: "second"}, time.Now().Add(5*time.Second))
	if err != nil || string(resp.Body) != "second" {
		t.Fatalf("call read across a stale deadline = %q, %v", resp.Body, err)
	}
	defer close(release)
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	tr.mu.Lock()
	same := tr.mc == first
	tr.mu.Unlock()
	if !same || first.isDead() {
		t.Fatal("a stale deadline dropped the connection")
	}
}
