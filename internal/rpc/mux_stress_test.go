package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
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
// randomly drops and delays requests at PtTCPServe. Dropped requests time
// out on the client, the Client retries, and the duplicate-request cache
// must keep every logical call exactly-once — each method executes once and
// every caller sees its own echo. Run with -race to exercise the
// reader/writer/pending-map synchronization.
func TestMuxStressWithInjectedFaults(t *testing.T) {
	h := newCountingHandler()
	ep := NewEndpoint(h.handle, WithWindow(8192))
	inj := fault.NewInjector(1)
	srv := Serve(listen(t), ep, WithInjector(inj), WithWorkers(16))
	defer func() { _ = srv.Close() }()
	tr := dial(t, srv, WithIOTimeout(80*time.Millisecond))

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

// TestMuxAttemptDeadlineExpiresAlone: on a multiplexed connection an overdue
// attempt fails by itself — a concurrent slow-but-within-deadline call on
// the same connection still completes, and the connection survives.
func TestMuxAttemptDeadlineExpiresAlone(t *testing.T) {
	block := make(chan struct{})
	ep := NewEndpoint(func(_ context.Context, req Request) ([]byte, error) {
		if req.Method == "slow" {
			<-block
		}
		return []byte(req.Method), nil
	}, WithWindow(64))
	srv := Serve(listen(t), ep)
	defer func() { _ = srv.Close() }()
	tr := dial(t, srv)

	var wg sync.WaitGroup
	wg.Add(1)
	slowErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		_, err := tr.SendWithDeadline(Request{ClientID: 1, Seq: 1, Method: "slow"},
			time.Now().Add(60*time.Millisecond))
		slowErr <- err
	}()
	// The fast call shares the connection and must not be collateral damage
	// of the slow call's expiry.
	deadline := time.Now().Add(5 * time.Second)
	resp, err := tr.SendWithDeadline(Request{ClientID: 1, Seq: 2, Method: "fast"}, deadline)
	if err != nil || string(resp.Body) != "fast" {
		t.Fatalf("fast call on shared connection = %q, %v", resp.Body, err)
	}
	wg.Wait()
	if err := <-slowErr; !errors.Is(err, ErrDropped) {
		t.Fatalf("overdue attempt = %v, want ErrDropped", err)
	}
	close(block) // release the handler
	// The connection is still usable after the expiry.
	resp, err = tr.Send(Request{ClientID: 1, Seq: 3, Method: "again"})
	if err != nil || string(resp.Body) != "again" {
		t.Fatalf("call after expiry = %q, %v", resp.Body, err)
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
