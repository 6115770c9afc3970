package rpc

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestWireTracedRequestRoundTrip encodes and decodes a traced request
// frame and checks the trace identity survives.
func TestWireTracedRequestRoundTrip(t *testing.T) {
	req := Request{ClientID: 7, Seq: 9, Method: "fs.writeAt",
		Body: []byte("payload"), TraceID: 0xDEAD_BEEF_CAFE_F00D, SpanID: 0x1234_5678_9ABC_DEF0}
	stream := encodeRequestFrame(t, 41, req)
	if stream[4] != frameRequestTraced {
		t.Fatalf("frame kind = %d, want traced (%d)", stream[4], frameRequestTraced)
	}
	fr := newFrameReader(bytes.NewReader(stream), DefaultMaxFrame)
	frame, err := fr.read()
	if err != nil {
		t.Fatal(err)
	}
	if frame.traceID != req.TraceID || frame.spanID != req.SpanID {
		t.Fatalf("decoded trace %x/%x, want %x/%x", frame.traceID, frame.spanID, req.TraceID, req.SpanID)
	}
	if frame.method != req.Method || !bytes.Equal(frame.body, req.Body) {
		t.Fatalf("decoded %q/%q", frame.method, frame.body)
	}
	Recycle(frame.body)
}

// TestWireTracedFrameSize pins the wire cost: a request without trace
// identity encodes to exactly the pre-trace layout (kind 1, no growth),
// and a traced request costs exactly 16 extra bytes.
func TestWireTracedFrameSize(t *testing.T) {
	plain := Request{ClientID: 7, Seq: 9, Method: "fs.writeAt", Body: []byte("payload")}
	traced := plain
	traced.TraceID, traced.SpanID = 1, 2
	p := encodeRequestFrame(t, 41, plain)
	tr := encodeRequestFrame(t, 41, traced)
	if p[4] != frameRequest {
		t.Fatalf("untraced kind = %d, want %d", p[4], frameRequest)
	}
	wantPlain := 4 + 1 + 8 + requestFixedLen + len(plain.Method) + len(plain.Body)
	if len(p) != wantPlain {
		t.Fatalf("untraced frame = %d bytes, want %d (layout changed?)", len(p), wantPlain)
	}
	if len(tr) != len(p)+16 {
		t.Fatalf("traced frame = %d bytes, want untraced+16 = %d", len(tr), len(p)+16)
	}
}

// TestWireTracedEncodeAllocBudget holds the traced encode path to the same
// zero-alloc budget as the untraced one.
func TestWireTracedEncodeAllocBudget(t *testing.T) {
	w := newFrameWriter(discardConn{}, func(err error) { t.Fatal(err) })
	req := Request{ClientID: 7, Seq: 1, Method: "fs.pread", Body: make([]byte, 4096),
		TraceID: 42, SpanID: 43}
	allocs := testing.AllocsPerRun(200, func() {
		req.Seq++
		if err := w.writeRequest(req.Seq, &req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > encodeAllocBudget {
		t.Fatalf("traced encode allocates %.1f/op, budget %d", allocs, encodeAllocBudget)
	}
}

// TestMuxRoundTripAllocBudgetTracingDisabled is the disabled-path gate the
// CI overhead step runs: a Call with no span in flight must cost no more
// allocations than the pre-trace budget — the trace header fields ride
// existing frames and existing structs, so tracing-off is free.
func TestMuxRoundTripAllocBudgetTracingDisabled(t *testing.T) {
	payload := bytes.Repeat([]byte{0xCD}, 4096)
	ep := NewEndpoint(func(_ context.Context, req Request) ([]byte, error) {
		out := getBuf(len(req.Body))
		copy(out, req.Body)
		return out, nil
	}, WithoutDupCache())
	srv := Serve(listen(t), ep)
	defer func() { _ = srv.Close() }()
	tr := dial(t, srv)
	c := NewClient(tr, 9, 3, nil)
	c.SetAttemptTimeout(5 * time.Second)
	// A bare context: tracing disabled, the untraced budget.
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		out, err := c.Call(ctx, "echo", payload)
		if err != nil || len(out) != len(payload) {
			t.Fatalf("Call = %d bytes, %v", len(out), err)
		}
		c.ReleaseBody(out)
	})
	if allocs > muxRoundTripBudget {
		t.Fatalf("tracing-disabled round trip allocates %.1f/op, budget %d (delta vs untraced must be <= 0)", allocs, muxRoundTripBudget)
	}
}

// TestTracePropagationOverTCP drives a traced Call through the real
// multiplexed transport and checks the server's serve span continues the
// client's trace: same trace ID, remote-parented to the client span. The
// server samples nothing of its own accord — the request arrives with trace
// identity, so the caller already decided.
func TestTracePropagationOverTCP(t *testing.T) {
	serverRec := obs.New(obs.WithSampleRate(0))
	var gotTrace atomic.Uint64
	ep := NewEndpoint(func(ctx context.Context, req Request) ([]byte, error) {
		if sp := obs.FromContext(ctx); sp != nil {
			gotTrace.Store(sp.TraceID())
		}
		return nil, nil
	}, WithObs(serverRec), WithoutDupCache())
	srv := Serve(listen(t), ep)
	defer func() { _ = srv.Close() }()
	tr := dial(t, srv)
	c := NewClient(tr, 9, 3, nil)
	c.SetAttemptTimeout(5 * time.Second)

	clientRec := obs.New(obs.WithSampleRate(1))
	ctx, root := clientRec.StartRoot(context.Background(), obs.LayerAgent, "op")
	out, err := c.Call(ctx, "traced", nil)
	if err != nil {
		t.Fatal(err)
	}
	c.ReleaseBody(out)
	root.End(nil)
	sp := root.Span()

	if got, want := gotTrace.Load(), sp.TraceID(); got != want {
		t.Fatalf("server saw trace %x, client sent %x", got, want)
	}
	trees := serverRec.Flight()
	if len(trees) != 1 {
		t.Fatalf("server recorded %d trees, want 1", len(trees))
	}
	serve := trees[0]
	if serve.TraceID != sp.TraceID() || serve.ParentSpanID != sp.SpanID() {
		t.Fatalf("serve span trace=%x parent=%x, want trace=%x parent=%x",
			serve.TraceID, serve.ParentSpanID, sp.TraceID(), sp.SpanID())
	}
	if serve.Layer != "rpc" || serve.Op != "traced" {
		t.Fatalf("serve span = %s/%s", serve.Layer, serve.Op)
	}
	// Untraced Call against the same endpoint must not join any trace.
	out, err = c.Call(context.Background(), "traced", nil)
	if err != nil {
		t.Fatal(err)
	}
	c.ReleaseBody(out)
	for _, tree := range serverRec.Flight() {
		if tree.TraceID != 0 && tree.TraceID != sp.TraceID() {
			t.Fatalf("untraced call produced foreign trace id %x", tree.TraceID)
		}
	}
}

// BenchmarkMuxRoundTripTraced measures the traced-vs-disabled delta the CI
// overhead step reports (compare with BenchmarkRoundTrip wire=binary).
func BenchmarkMuxRoundTripTraced(b *testing.B) {
	ep := NewEndpoint(func(_ context.Context, req Request) ([]byte, error) {
		out := getBuf(len(req.Body))
		copy(out, req.Body)
		return out, nil
	}, WithoutDupCache())
	srv := Serve(listen(b), ep)
	defer func() { _ = srv.Close() }()
	tr, err := DialTCP(srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	c := NewClient(tr, 9, 3, nil)
	c.SetAttemptTimeout(10 * time.Second)
	payload := bytes.Repeat([]byte{0xCD}, 4096)
	rec := obs.New(obs.WithSampleRate(1))
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx, sp := rec.StartRoot(context.Background(), obs.LayerAgent, "bench")
		out, err := c.Call(ctx, "echo", payload)
		if err != nil {
			b.Fatal(err)
		}
		c.ReleaseBody(out)
		sp.End(nil)
	}
}
