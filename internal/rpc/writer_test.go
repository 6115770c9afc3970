package rpc

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// gatedConn is a net.Conn whose first Write blocks until gate closes. It
// records every Write.
type gatedConn struct {
	net.Conn
	entered, gate chan struct{}

	mu     sync.Mutex
	writes [][]byte
}

func (c *gatedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	first := len(c.writes) == 0
	c.writes = append(c.writes, append([]byte(nil), p...))
	c.mu.Unlock()
	if first {
		close(c.entered)
		<-c.gate
	}
	return len(p), nil
}

// TestFrameWriterSharesWrites: producers that arrive while a write is in
// progress append their frames and return at once, and the flusher sends
// all of them in one further Write.
func TestFrameWriterSharesWrites(t *testing.T) {
	const n = 8
	conn := &gatedConn{entered: make(chan struct{}), gate: make(chan struct{})}
	w := newFrameWriter(conn, 0, func(err error) { t.Errorf("write failed: %v", err) })
	first := make(chan error, 1)
	go func() { first <- w.writeResponse(0, &Response{Body: []byte("first")}) }()
	<-conn.entered

	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := w.writeResponse(uint64(i), &Response{Seq: uint64(i), Body: []byte("shared")}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait() // every producer returned while the first write is blocked
	close(conn.gate)
	if err := <-first; err != nil {
		t.Fatal(err)
	}

	conn.mu.Lock()
	defer conn.mu.Unlock()
	if len(conn.writes) != 2 {
		t.Fatalf("%d writes, want 2: the first frame's, then the %d frames queued behind it", len(conn.writes), n)
	}
	fr := newFrameReader(bytes.NewReader(conn.writes[1]), DefaultMaxFrame)
	seen := map[uint64]bool{}
	for {
		frame, _, err := fr.read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if frame.id != frame.seq || string(frame.body) != "shared" {
			t.Fatalf("decoded frame %+v", frame)
		}
		seen[frame.id] = true
		Recycle(frame.body)
	}
	if len(seen) != n {
		t.Fatalf("second write carried %d distinct frames, want %d", len(seen), n)
	}
}

// sliceConn is a net.Conn that records the slices it is handed.
type sliceConn struct {
	net.Conn
	writes [][]byte
}

func (c *sliceConn) Write(p []byte) (int, error) {
	c.writes = append(c.writes, p)
	return len(p), nil
}

// TestFrameWriterLargeBodyUncopied: a body of directBodySize or more goes to
// the connection from the caller's slice, right behind its frame's head; a
// smaller one is copied into the pending buffer with its head.
func TestFrameWriterLargeBodyUncopied(t *testing.T) {
	for _, size := range []int{directBodySize - 1, directBodySize, 1 << 20} {
		conn := &sliceConn{}
		w := newFrameWriter(conn, 0, func(err error) { t.Fatal(err) })
		body := make([]byte, size)
		if err := w.writeResponse(1, &Response{Body: body}); err != nil {
			t.Fatal(err)
		}
		last := conn.writes[len(conn.writes)-1]
		uncopied := len(last) == size && unsafe.SliceData(last) == unsafe.SliceData(body)
		if want := size >= directBodySize; uncopied != want {
			t.Fatalf("%d-byte body: written from the caller's slice = %v, want %v", size, uncopied, want)
		}
	}
}

// TestMuxLargeBodiesInterleave: large bodies, written uncopied, and small
// ones, copied, from concurrent callers on one connection arrive intact in
// both directions.
func TestMuxLargeBodiesInterleave(t *testing.T) {
	ep := NewEndpoint(func(_ context.Context, req Request) ([]byte, error) {
		return append([]byte(nil), req.Body...), nil
	}, WithoutDupCache())
	srv := Serve(listen(t), ep)
	defer func() { _ = srv.Close() }()
	tr := dial(t, srv)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := NewClient(tr, uint64(100+g), 3, nil)
			for i := 0; i < 20; i++ {
				body := bytes.Repeat([]byte{byte(g*20 + i)}, []int{100, 4096, 300 << 10}[(g+i)%3])
				out, err := c.Call(context.Background(), "echo", body)
				if err != nil || !bytes.Equal(out, body) {
					t.Errorf("caller %d call %d: %d bytes back for %d, %v", g, i, len(out), len(body), err)
					return
				}
				c.ReleaseBody(out)
			}
		}(g)
	}
	wg.Wait()
}

// stallBody is the body of every frame sent at a peer that stops reading:
// small enough to be copied into the pending buffer, large enough that
// three of them pass the writer's bound.
var stallBody = make([]byte, 48<<10)

// floodAndStall runs producers concurrent sends of stallBody through send,
// on a writer w whose peer stops reading, and checks the bound while they
// pile up: a write in progress and never more pending bytes than the bound
// plus one frame. It returns the channel each send's error arrives on.
func floodAndStall(t *testing.T, w *frameWriter, producers int, send func() error) chan error {
	t.Helper()
	errs := make(chan error, producers)
	for i := 0; i < producers; i++ {
		go func() { errs <- send() }()
	}
	limit := wireBufferSize + len(stallBody) + 64
	stalled := 0
	for tries := 0; stalled < 20; tries++ {
		if tries == 5000 {
			t.Fatal("the writer never stalled behind a peer that stops reading")
		}
		w.mu.Lock()
		pending, writing := len(w.pending), w.writing
		w.mu.Unlock()
		if pending > limit {
			t.Fatalf("%d bytes pending behind a stalled write, bound %d", pending, limit)
		}
		if writing && pending >= wireBufferSize {
			stalled++
		}
		<-time.After(time.Millisecond)
	}
	return errs
}

// TestMuxBackpressureReleasedByClose: a server that stops reading bounds the
// bytes queued on the client, and closing the connection releases every
// waiting caller with ErrDropped.
func TestMuxBackpressureReleasedByClose(t *testing.T) {
	ln := listen(t)
	defer func() { _ = ln.Close() }()
	peer := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		_ = conn.(*net.TCPConn).SetReadBuffer(16 << 10)
		peer <- conn // read nothing
	}()
	tr, err := DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	mc := tr.mc
	_ = mc.conn.(*net.TCPConn).SetWriteBuffer(16 << 10)

	const producers = 32
	errs := floodAndStall(t, mc.w, producers, func() error {
		_, err := tr.Send(Request{ClientID: 1, Method: "m", Body: stallBody})
		return err
	})
	_ = (<-peer).Close()
	for i := 0; i < producers; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrDropped) {
				t.Fatalf("send released by the close = %v, want ErrDropped", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d sends still blocked after the close", producers-i, producers)
		}
	}
}

// TestPushBackpressureReleasedByClose: a client that stops reading bounds the
// bytes a server connection queues for it, and closing the connection
// releases the waiting pushers with ErrClosed.
func TestPushBackpressureReleasedByClose(t *testing.T) {
	pushers := make(chan Pusher, 1)
	ep := NewEndpoint(func(ctx context.Context, _ Request) ([]byte, error) {
		peer, _ := PeerFromContext(ctx)
		pushers <- peer.Pusher
		return nil, nil
	}, WithoutDupCache())
	srv := Serve(listen(t), ep)
	defer func() { _ = srv.Close() }()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.(*net.TCPConn).SetReadBuffer(16 << 10)
	if _, err := conn.Write(encodeRequestFrame(t, 1, Request{ClientID: 1, Seq: 1, Method: "hold"})); err != nil {
		t.Fatal(err)
	}
	p := <-pushers
	sc := p.(*serverConn)
	_ = sc.conn.(*net.TCPConn).SetWriteBuffer(16 << 10)

	const producers = 32
	errs := floodAndStall(t, sc.w, producers, func() error { return p.Push("flood", stallBody) })
	_ = conn.Close()
	closed := 0
	for i := 0; i < producers; i++ {
		select {
		case err := <-errs:
			// A push queued before the close, or the one on the stalled
			// write, returned nil; the ones waiting on the bound get ErrClosed.
			if errors.Is(err, ErrClosed) {
				closed++
			} else if err != nil {
				t.Fatalf("push released by the close = %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d pushes still blocked after the close", producers-i, producers)
		}
	}
	if closed == 0 {
		t.Fatal("no push was waiting on the bound when the connection closed")
	}
	if err := p.Push("late", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("push on a closed connection = %v, want ErrClosed", err)
	}
}

// TestDialedConnectionGoroutines: a round trip with a lone caller runs on
// one reader goroutine per side — plus the push dispatcher when one is
// configured — and nothing else: the caller and the server's worker write
// their own frames.
func TestDialedConnectionGoroutines(t *testing.T) {
	ep := NewEndpoint(func(_ context.Context, req Request) ([]byte, error) { return req.Body, nil }, WithoutDupCache())
	srv := Serve(listen(t), ep)
	defer func() { _ = srv.Close() }()
	// settled is the goroutine count once it has held for 10 ms: goroutines
	// of earlier tests still exiting, or of this one still starting, do not
	// count.
	settled := func() int {
		n, held := runtime.NumGoroutine(), 0
		for i := 0; i < 2000 && held < 10; i++ {
			<-time.After(time.Millisecond)
			if m := runtime.NumGoroutine(); m == n {
				held++
			} else {
				n, held = m, 0
			}
		}
		return n
	}
	base := settled()
	for _, tc := range []struct {
		name string
		opts []TCPOption
		want int
	}{
		{"plain", nil, 2},
		{"push handler", []TCPOption{WithPushHandler(func(string, []byte) {})}, 3},
	} {
		tr, err := DialTCP(srv.Addr().String(), tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient(tr, 1, 3, nil)
		for i := 0; i < 10; i++ {
			out, err := c.Call(context.Background(), "echo", []byte("x"))
			if err != nil || string(out) != "x" {
				t.Fatalf("%s: Call = %q, %v", tc.name, out, err)
			}
		}
		if got := settled() - base; got != tc.want {
			t.Fatalf("%s: connection runs %d goroutines, want %d", tc.name, got, tc.want)
		}
		_ = tr.Close()
		if got := settled() - base; got != 0 {
			t.Fatalf("%s: %d goroutines left after Close", tc.name, got)
		}
	}
}
