package rpc

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
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

// discardConn is a net.Conn that accepts every write.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

func TestWireEncodeAllocBudget(t *testing.T) {
	w := newFrameWriter(discardConn{}, func(err error) { t.Fatal(err) })
	req := Request{ClientID: 7, Seq: 1, Method: "fs.pread", Body: make([]byte, 4096)}
	allocs := testing.AllocsPerRun(200, func() {
		req.Seq++
		if err := w.writeRequest(req.Seq, &req); err != nil {
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
		frame, err := fr.read()
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
// server reader, worker, client reader) over real loopback TCP. The
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
	tr := dial(t, srv)
	c := NewClient(tr, 9, 3, nil)
	c.SetAttemptTimeout(5 * time.Second)
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
	w := newFrameWriter(discardConn{}, func(err error) { b.Fatal(err) })
	req := Request{ClientID: 7, Seq: 1, Method: "fs.pread", Body: make([]byte, 4096)}
	b.SetBytes(int64(len(req.Body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.writeRequest(uint64(i), &req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireDecode(b *testing.B) {
	req := Request{ClientID: 7, Seq: 1, Method: "fs.pread", Body: make([]byte, 4096)}
	rd := bytes.NewReader(encodeRequestFrame(b, 1, req))
	fr := newFrameReader(rd, DefaultMaxFrame)
	b.SetBytes(int64(len(req.Body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rd.Seek(0, io.SeekStart); err != nil {
			b.Fatal(err)
		}
		fr.br.Reset(rd)
		frame, err := fr.read()
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
	tr, err := DialTCP(srv.Addr().String())
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
		c.SetAttemptTimeout(10 * time.Second)
		for pb.Next() {
			out, err := c.Call(context.Background(), "echo", payload)
			if err != nil {
				b.Fatal(err)
			}
			c.ReleaseBody(out)
		}
	})
}

// stallThreshold is the round-trip time past which a round trip counts as a
// stall rather than as service.
const stallThreshold = time.Millisecond

// reportRoundTrips reports the median of the round-trip times ds, the share
// of their sum spent in stalls, the stall rate over the benchmark's wall
// time and the median stall.
func reportRoundTrips(b *testing.B, ds []time.Duration) {
	if len(ds) == 0 {
		return
	}
	slices.Sort(ds)
	var total, stalled time.Duration
	stalls := 0
	for _, d := range ds {
		total += d
		if d > stallThreshold {
			stalled += d
			stalls++
		}
	}
	b.ReportMetric(float64(ds[len(ds)/2])/1e3, "p50_us")
	b.ReportMetric(100*float64(stalled)/float64(total), "stall_%")
	b.ReportMetric(float64(stalls)/b.Elapsed().Seconds(), "stalls/s")
	if stalls > 0 {
		b.ReportMetric(float64(ds[len(ds)-stalls/2-1])/1e6, "stall_p50_ms")
	}
}

// BenchmarkLoopbackEcho is the kernel's share of a round trip, with no rpc
// layer: two client/echo goroutine pairs, each on its own loopback TCP
// connection, ping-pong 100-byte frames. Set beside BenchmarkRoundTrip and
// the rpc round trips of the repository benchmark, its p50 and stall share
// say how much of a round trip, and of its millisecond stalls, the host's
// scheduler and loopback stack account for.
func BenchmarkLoopbackEcho(b *testing.B) {
	const pairs, frame = 2, 100
	ln := listen(b)
	defer func() { _ = ln.Close() }()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				buf := make([]byte, frame)
				for {
					if _, err := io.ReadFull(conn, buf); err != nil {
						return
					}
					if _, err := conn.Write(buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	conns := make([]net.Conn, pairs)
	for i := range conns {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		conns[i] = conn
	}
	ds := make([][]time.Duration, pairs)
	var wg sync.WaitGroup
	b.SetBytes(frame)
	b.ResetTimer()
	for i, conn := range conns {
		n := (b.N + pairs - 1 - i) / pairs
		ds[i] = make([]time.Duration, 0, n)
		wg.Add(1)
		go func(i int, conn net.Conn) {
			defer wg.Done()
			buf := make([]byte, frame)
			for k := 0; k < n; k++ {
				t0 := time.Now()
				if _, err := conn.Write(buf); err != nil {
					b.Error(err)
					return
				}
				if _, err := io.ReadFull(conn, buf); err != nil {
					b.Error(err)
					return
				}
				ds[i] = append(ds[i], time.Since(t0))
			}
		}(i, conn)
	}
	wg.Wait()
	b.StopTimer()
	reportRoundTrips(b, slices.Concat(ds...))
}

func BenchmarkRoundTrip(b *testing.B) {
	// The wire=binary prefix predates the single wire; CI selects on it.
	for _, clients := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("wire=binary/clients=%d", clients), func(b *testing.B) {
			benchRoundTrip(b, clients)
		})
	}
}
