package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/metrics"
)

// countingHandler counts executions per method and echoes the body.
type countingHandler struct {
	mu    sync.Mutex
	execs map[string]int
}

func newCountingHandler() *countingHandler {
	return &countingHandler{execs: make(map[string]int)}
}

func (h *countingHandler) handle(_ context.Context, req Request) ([]byte, error) {
	method, body := req.Method, req.Body
	h.mu.Lock()
	h.execs[method]++
	h.mu.Unlock()
	if method == "fail" {
		return nil, errors.New("deliberate failure")
	}
	return append([]byte("echo:"), body...), nil
}

func (h *countingHandler) count(method string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.execs[method]
}

func TestCallRoundTrip(t *testing.T) {
	h := newCountingHandler()
	ep := NewEndpoint(h.handle)
	c := NewClient(NewInProc(ep, FaultConfig{}), 1, 0, nil)
	got, err := c.Call(context.Background(), "ping", []byte("x"))
	if err != nil || string(got) != "echo:x" {
		t.Fatalf("Call = %q, %v", got, err)
	}
	if h.count("ping") != 1 {
		t.Fatalf("handler ran %d times, want 1", h.count("ping"))
	}
}

func TestServiceErrorPropagates(t *testing.T) {
	h := newCountingHandler()
	ep := NewEndpoint(h.handle)
	c := NewClient(NewInProc(ep, FaultConfig{}), 1, 0, nil)
	_, err := c.Call(context.Background(), "fail", nil)
	var se *ServiceError
	if !errors.As(err, &se) {
		t.Fatalf("Call = %v, want ServiceError", err)
	}
	if se.Method != "fail" || se.Message != "deliberate failure" {
		t.Fatalf("ServiceError = %+v", se)
	}
}

func TestRetriesAfterLossNoDoubleExecution(t *testing.T) {
	// E13's heart: with 40% loss, calls still succeed and no request
	// executes twice.
	h := newCountingHandler()
	met := metrics.NewSet()
	ep := NewEndpoint(h.handle, WithMetrics(met))
	c := NewClient(NewInProc(ep, FaultConfig{DropProb: 0.4, Seed: 7}), 1, 100, met)
	for i := 0; i < 50; i++ {
		m := "op" + strconv.Itoa(i)
		if _, err := c.Call(context.Background(), m, nil); err != nil {
			t.Fatalf("Call %s: %v", m, err)
		}
		if h.count(m) != 1 {
			t.Fatalf("%s executed %d times, want exactly 1", m, h.count(m))
		}
	}
	if met.Get(metrics.RPCRetries) == 0 {
		t.Fatal("no retries recorded despite 40% drop rate")
	}
}

func TestDuplicatesAnsweredFromCache(t *testing.T) {
	h := newCountingHandler()
	met := metrics.NewSet()
	ep := NewEndpoint(h.handle, WithMetrics(met))
	c := NewClient(NewInProc(ep, FaultConfig{DupProb: 1.0, Seed: 3}), 1, 10, met)
	for i := 0; i < 20; i++ {
		m := "dup" + strconv.Itoa(i)
		if _, err := c.Call(context.Background(), m, nil); err != nil {
			t.Fatal(err)
		}
		if h.count(m) != 1 {
			t.Fatalf("%s executed %d times under duplication, want 1", m, h.count(m))
		}
	}
	if met.Get(metrics.RPCDuplicates) == 0 {
		t.Fatal("duplicate counter never incremented")
	}
}

func TestAblationWithoutDupCacheDoubleExecutes(t *testing.T) {
	h := newCountingHandler()
	ep := NewEndpoint(h.handle, WithoutDupCache())
	c := NewClient(NewInProc(ep, FaultConfig{DupProb: 1.0, Seed: 3}), 1, 10, nil)
	if _, err := c.Call(context.Background(), "op", nil); err != nil {
		t.Fatal(err)
	}
	if h.count("op") < 2 {
		t.Fatalf("without the cache, duplicated request executed %d times, want >= 2", h.count("op"))
	}
}

func TestDupCacheWindowEviction(t *testing.T) {
	c := NewDupCache(2)
	c.Store(1, 1, Response{Seq: 1})
	c.Store(1, 2, Response{Seq: 2})
	c.Store(1, 3, Response{Seq: 3})
	if _, ok := c.Lookup(1, 1); ok {
		t.Fatal("oldest entry not evicted")
	}
	if _, ok := c.Lookup(1, 3); !ok {
		t.Fatal("newest entry missing")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	// Per-client isolation.
	c.Store(2, 1, Response{Seq: 1})
	if _, ok := c.Lookup(2, 1); !ok {
		t.Fatal("second client's entry missing")
	}
}

func TestDupCacheClientBound(t *testing.T) {
	c := NewDupCache(4)
	c.maxClients = 8
	for id := uint64(1); id <= 100; id++ {
		c.Store(id, 1, Response{Seq: 1})
	}
	if got := c.Clients(); got != 8 {
		t.Fatalf("Clients = %d, want 8 (bound)", got)
	}
	// The survivors are the most recently active clients.
	for id := uint64(93); id <= 100; id++ {
		if _, ok := c.Lookup(id, 1); !ok {
			t.Fatalf("recent client %d reclaimed", id)
		}
	}
	if _, ok := c.Lookup(1, 1); ok {
		t.Fatal("least recently active client survived past the bound")
	}
	// Lookups count as activity: touch client 93, then add a new client; 94
	// (now the least recent) should go, not 93.
	if _, ok := c.Lookup(93, 1); !ok {
		t.Fatal("client 93 missing")
	}
	c.Store(200, 1, Response{Seq: 1})
	if _, ok := c.Lookup(93, 1); !ok {
		t.Fatal("recently touched client reclaimed")
	}
	if _, ok := c.Lookup(94, 1); ok {
		t.Fatal("least recently active client not reclaimed")
	}
}

func TestDupCacheConcurrentClients(t *testing.T) {
	// Stress the cache with many clients churning past the bound while
	// duplicate lookups race with stores (run under -race).
	c := NewDupCache(8)
	c.maxClients = 16
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				client := uint64(w*64 + i%32)
				seq := uint64(i/32 + 1)
				if resp, ok := c.Lookup(client, seq); ok && resp.Seq != seq {
					t.Errorf("Lookup(%d,%d) = seq %d", client, seq, resp.Seq)
					return
				}
				c.Store(client, seq, Response{Seq: seq})
			}
		}(w)
	}
	wg.Wait()
	if got := c.Clients(); got > 16 {
		t.Fatalf("Clients = %d, want <= 16", got)
	}
	if got := c.Len(); got > 16*8 {
		t.Fatalf("Len = %d, want <= %d", got, 16*8)
	}
}

func TestClientsHaveIndependentSequences(t *testing.T) {
	h := newCountingHandler()
	ep := NewEndpoint(h.handle)
	c1 := NewClient(NewInProc(ep, FaultConfig{}), 1, 0, nil)
	c2 := NewClient(NewInProc(ep, FaultConfig{}), 2, 0, nil)
	if _, err := c1.Call(context.Background(), "a", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Call(context.Background(), "a", nil); err != nil {
		t.Fatal(err)
	}
	// Same seq (1) from different clients must both execute.
	if h.count("a") != 2 {
		t.Fatalf("executed %d times, want 2 (per-client windows)", h.count("a"))
	}
}

func TestExhaustedRetries(t *testing.T) {
	h := newCountingHandler()
	ep := NewEndpoint(h.handle)
	c := NewClient(NewInProc(ep, FaultConfig{DropProb: 1.0, Seed: 1}), 1, 3, nil)
	if _, err := c.Call(context.Background(), "x", nil); !errors.Is(err, ErrDropped) {
		t.Fatalf("Call on dead network = %v, want wrapped ErrDropped", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	h := newCountingHandler()
	ep := NewEndpoint(h.handle, WithWindow(4096))
	c := NewClient(NewInProc(ep, FaultConfig{DropProb: 0.2, Seed: 11}), 1, 100, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := c.Call(context.Background(), fmt.Sprintf("w%d-%d", w, i), nil); err != nil {
					t.Errorf("Call: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < 8; w++ {
		for i := 0; i < 50; i++ {
			m := fmt.Sprintf("w%d-%d", w, i)
			if h.count(m) != 1 {
				t.Fatalf("%s executed %d times", m, h.count(m))
			}
		}
	}
}

func TestTCPRoundTrip(t *testing.T) {
	h := newCountingHandler()
	ep := NewEndpoint(h.handle)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, ep)
	defer func() { _ = srv.Close() }()
	tr := dial(t, srv)
	c := NewClient(tr, 42, 3, nil)
	got, err := c.Call(context.Background(), "ping", []byte("net"))
	if err != nil || string(got) != "echo:net" {
		t.Fatalf("TCP Call = %q, %v", got, err)
	}
	// Errors over TCP.
	if _, err := c.Call(context.Background(), "fail", nil); err == nil {
		t.Fatal("service error lost over TCP")
	}
}

func TestTCPServerCloseUnblocksClients(t *testing.T) {
	h := newCountingHandler()
	ep := NewEndpoint(h.handle)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, ep)
	tr := dial(t, srv)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	c := NewClient(tr, 1, 1, nil)
	if _, err := c.Call(context.Background(), "ping", nil); err == nil {
		t.Fatal("call to closed server succeeded")
	}
}

func TestTCPReconnectAfterServerRestart(t *testing.T) {
	h := newCountingHandler()
	ep := NewEndpoint(h.handle)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := Serve(ln, ep)
	tr, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	c := NewClient(tr, 1, 20, nil)
	if _, err := c.Call(context.Background(), "one", nil); err != nil {
		t.Fatal(err)
	}
	// Restart the server on the same address (same endpoint, so the
	// duplicate cache survives, as a restarted service's would from stable
	// storage).
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	srv2 := Serve(ln2, ep)
	defer func() { _ = srv2.Close() }()
	if _, err := c.Call(context.Background(), "two", nil); err != nil {
		t.Fatalf("call after restart: %v", err)
	}
	if h.count("two") != 1 {
		t.Fatalf("post-restart call executed %d times", h.count("two"))
	}
}

// TestTCPIOTimeout: a peer that accepts and then never responds must not
// block the transport forever — the read deadline fires and the send fails
// with ErrDropped.
func TestTCPIOTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	// Hung server: accept connections, read nothing, write nothing.
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer func() { _ = conn.Close() }()
		}
	}()
	tr, err := DialTCP(ln.Addr().String(), WithIOTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	start := time.Now()
	_, err = tr.Send(Request{ClientID: 1, Seq: 1, Method: "ping"})
	if !errors.Is(err, ErrDropped) {
		t.Fatalf("send to hung server = %v, want ErrDropped", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v, deadline not applied", elapsed)
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("error %v does not wrap a net timeout", err)
	}
}

// TestTCPServerReadTimeout: a client that connects and sends nothing is
// dropped by the server's read deadline instead of pinning a goroutine and
// connection forever.
func TestTCPServerReadTimeout(t *testing.T) {
	h := newCountingHandler()
	ep := NewEndpoint(h.handle)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, ep, WithIOTimeout(50*time.Millisecond))
	defer func() { _ = srv.Close() }()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	// Send nothing; the server must close the connection, observed here as
	// EOF (not a local deadline, so give the read a generous bound).
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server kept a silent connection open past its read deadline")
	}
	// A well-behaved client still works against the same server.
	tr := dial(t, srv)
	c := NewClient(tr, 7, 3, nil)
	if got, err := c.Call(context.Background(), "ping", []byte("x")); err != nil || string(got) != "echo:x" {
		t.Fatalf("call after timeout eviction = %q, %v", got, err)
	}
}

// deadlineRecorder is a DeadlineTransport that fails its first failures
// attempts with ErrDropped and records the absolute deadline of every
// attempt, proving each retry gets a fresh window.
type deadlineRecorder struct {
	ep        *Endpoint
	mu        sync.Mutex
	failures  int
	deadlines []time.Time
}

func (d *deadlineRecorder) Send(req Request) (Response, error) {
	return d.SendWithDeadline(req, time.Time{})
}

func (d *deadlineRecorder) SendWithDeadline(req Request, deadline time.Time) (Response, error) {
	d.mu.Lock()
	d.deadlines = append(d.deadlines, deadline)
	fail := d.failures > 0
	if fail {
		d.failures--
	}
	d.mu.Unlock()
	if fail {
		// A real timed-out attempt burns wall clock before failing, so the
		// next attempt's fresh deadline must be strictly later.
		time.Sleep(time.Millisecond)
		return Response{}, ErrDropped
	}
	return d.ep.Handle(context.Background(), req), nil
}

func (d *deadlineRecorder) Close() error { return nil }

func TestRetryComputesFreshAttemptDeadline(t *testing.T) {
	h := newCountingHandler()
	tr := &deadlineRecorder{ep: NewEndpoint(h.handle), failures: 2}
	c := NewClient(tr, 1, 5, nil)
	c.SetAttemptTimeout(50 * time.Millisecond)
	got, err := c.Call(context.Background(), "ping", []byte("x"))
	if err != nil || string(got) != "echo:x" {
		t.Fatalf("Call = %q, %v", got, err)
	}
	tr.mu.Lock()
	deadlines := tr.deadlines
	tr.mu.Unlock()
	if len(deadlines) != 3 {
		t.Fatalf("saw %d attempts, want 3", len(deadlines))
	}
	for i, dl := range deadlines {
		if dl.IsZero() {
			t.Fatalf("attempt %d had no deadline", i)
		}
		if i > 0 && !dl.After(deadlines[i-1]) {
			t.Fatalf("attempt %d deadline %v does not advance past attempt %d's %v — retry inherited a stale deadline",
				i, dl, i-1, deadlines[i-1])
		}
	}
}

func TestInjectedDelayPastDeadlineRetriesEffectsOnce(t *testing.T) {
	// An injected send delay longer than the attempt timeout executes the
	// handler (the request arrived) but loses the response. The retry gets a
	// fresh deadline, succeeds, and is answered from the duplicate cache —
	// the handler must not run twice.
	h := newCountingHandler()
	met := metrics.NewSet()
	ep := NewEndpoint(h.handle, WithMetrics(met))
	tr := NewInProc(ep, FaultConfig{})
	inj := fault.NewInjector(9)
	tr.SetInjector(inj)
	c := NewClient(tr, 1, 5, met)
	c.SetAttemptTimeout(10 * time.Millisecond)
	inj.Arm(PtSend, fault.Action{Kind: fault.KindDelay, Delay: 50 * time.Millisecond})
	got, err := c.Call(context.Background(), "slow", []byte("x"))
	if err != nil || string(got) != "echo:x" {
		t.Fatalf("Call = %q, %v", got, err)
	}
	if n := h.count("slow"); n != 1 {
		t.Fatalf("handler ran %d times, want 1 (dup cache must answer the retry)", n)
	}
	if met.Get(metrics.RPCRetries) < 1 {
		t.Fatal("no retry recorded")
	}
	if met.Get(metrics.RPCDuplicates) < 1 {
		t.Fatal("retry was not answered from the duplicate cache")
	}
}

func TestInjectedSendErrorIsRetried(t *testing.T) {
	// An injected error drops the request before it reaches the endpoint;
	// the retry delivers it and the handler runs exactly once.
	h := newCountingHandler()
	ep := NewEndpoint(h.handle)
	tr := NewInProc(ep, FaultConfig{})
	inj := fault.NewInjector(9)
	tr.SetInjector(inj)
	c := NewClient(tr, 1, 5, nil)
	inj.Arm(PtSend, fault.Action{Kind: fault.KindError})
	got, err := c.Call(context.Background(), "drop", []byte("y"))
	if err != nil || string(got) != "echo:y" {
		t.Fatalf("Call = %q, %v", got, err)
	}
	if n := h.count("drop"); n != 1 {
		t.Fatalf("handler ran %d times, want 1", n)
	}
	if inj.Fired(PtSend) != 1 {
		t.Fatalf("injector fired %d times, want 1", inj.Fired(PtSend))
	}
}
