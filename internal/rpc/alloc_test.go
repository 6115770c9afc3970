package rpc

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"
)

// Allocation budgets for the binary wire, enforced in CI (see the
// alloc-budget step in ci.yml): the whole point of the hand-rolled codec is
// that steady-state encode performs zero allocations and steady-state decode
// reuses recycled body buffers, so a regression here silently re-introduces
// the per-frame garbage gob used to produce.
const (
	encodeAllocBudget  = 0
	decodeAllocBudget  = 0
	muxRoundTripBudget = 40 // full Client.Call over loopback TCP
)

func TestWireEncodeAllocBudget(t *testing.T) {
	bw := bufio.NewWriterSize(io.Discard, wireBufferSize)
	req := Request{ClientID: 7, Seq: 1, Method: "fs.pread", Body: make([]byte, 4096)}
	allocs := testing.AllocsPerRun(200, func() {
		req.Seq++
		if err := writeRequest(bw, req.Seq, &req, DefaultMaxFrame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > encodeAllocBudget {
		t.Fatalf("encode allocates %.1f/op, budget %d", allocs, encodeAllocBudget)
	}
}

func TestWireDecodeAllocBudget(t *testing.T) {
	stream := encodeRequestFrame(t, 1, Request{ClientID: 7, Seq: 1, Method: "fs.pread", Body: make([]byte, 4096)})
	rd := bytes.NewReader(stream)
	fr := newFrameReader(rd, DefaultMaxFrame)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := rd.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		fr.br.Reset(rd)
		frame, _, err := fr.read()
		if err != nil {
			t.Fatal(err)
		}
		Recycle(frame.body)
	})
	if allocs > decodeAllocBudget {
		t.Fatalf("decode allocates %.1f/op, budget %d", allocs, decodeAllocBudget)
	}
}

// TestMuxRoundTripAllocBudget bounds a full retried Call (client goroutine,
// writer, server reader, worker, response) over real loopback TCP. The
// budget is deliberately loose — goroutine handoff and the response path
// allocate a little — but tight enough that a copy or re-encode slipping
// into the hot path fails CI.
func TestMuxRoundTripAllocBudget(t *testing.T) {
	payload := bytes.Repeat([]byte{0xCD}, 4096)
	ep := NewEndpoint(func(_ context.Context, req Request) ([]byte, error) {
		out := getBuf(len(req.Body)) // pooled, copied: handlers must not alias req bodies
		copy(out, req.Body)
		return out, nil
	}, WithoutDupCache())
	srv := Serve(listen(t), ep)
	defer func() { _ = srv.Close() }()
	tr, err := DialTCP(srv.Addr().String(), WithIOTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	c := NewClient(tr, 9, 3, nil)
	allocs := testing.AllocsPerRun(100, func() {
		out, err := c.Call(context.Background(), "echo", payload)
		if err != nil || len(out) != len(payload) {
			t.Fatalf("Call = %d bytes, %v", len(out), err)
		}
		c.ReleaseBody(out)
	})
	if allocs > muxRoundTripBudget {
		t.Fatalf("mux round trip allocates %.1f/op, budget %d", allocs, muxRoundTripBudget)
	}
}

// --- benchmarks (compare with -bench 'Wire|RoundTrip' -benchmem) ---

func BenchmarkWireEncode(b *testing.B) {
	bw := bufio.NewWriterSize(io.Discard, wireBufferSize)
	req := Request{ClientID: 7, Seq: 1, Method: "fs.pread", Body: make([]byte, 4096)}
	b.SetBytes(int64(len(req.Body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := writeRequest(bw, uint64(i), &req, DefaultMaxFrame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireDecode(b *testing.B) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	req := Request{ClientID: 7, Seq: 1, Method: "fs.pread", Body: make([]byte, 4096)}
	if err := writeRequest(bw, 1, &req, DefaultMaxFrame); err != nil {
		b.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		b.Fatal(err)
	}
	rd := bytes.NewReader(buf.Bytes())
	fr := newFrameReader(rd, DefaultMaxFrame)
	b.SetBytes(int64(len(req.Body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rd.Seek(0, io.SeekStart); err != nil {
			b.Fatal(err)
		}
		fr.br.Reset(rd)
		frame, _, err := fr.read()
		if err != nil {
			b.Fatal(err)
		}
		Recycle(frame.body)
	}
}

// benchRoundTrip measures Client.Call over loopback TCP at the given
// concurrency.
func benchRoundTrip(b *testing.B, clients int) {
	ep := NewEndpoint(func(_ context.Context, req Request) ([]byte, error) {
		out := getBuf(len(req.Body))
		copy(out, req.Body)
		return out, nil
	}, WithoutDupCache())
	srv := Serve(listen(b), ep)
	defer func() { _ = srv.Close() }()
	tr, err := DialTCP(srv.Addr().String(), WithIOTimeout(10*time.Second))
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	payload := bytes.Repeat([]byte{0xCD}, 4096)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.SetParallelism(clients)
	var id atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		c := NewClient(tr, id.Add(1), 3, nil)
		for pb.Next() {
			out, err := c.Call(context.Background(), "echo", payload)
			if err != nil {
				b.Fatal(err)
			}
			c.ReleaseBody(out)
		}
	})
}

func BenchmarkRoundTrip(b *testing.B) {
	// The wire=binary prefix predates the single wire; CI selects on it.
	for _, clients := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("wire=binary/clients=%d", clients), func(b *testing.B) {
			benchRoundTrip(b, clients)
		})
	}
}
