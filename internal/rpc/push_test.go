package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// TestWirePushRoundTrip pins the push frame layout through the codec.
func TestWirePushRoundTrip(t *testing.T) {
	body := []byte{1, 2, 3, 4, 5}
	frame := frameBytes(t, func(w *frameWriter) error { return w.writePush("cc.recall", body) })
	wantLen := 4 + frameCommonLen + pushFixedLen + len("cc.recall") + len(body)
	if len(frame) != wantLen {
		t.Fatalf("push frame is %d bytes, want %d", len(frame), wantLen)
	}
	fr, err := newFrameReader(bytes.NewReader(frame), 0).read()
	if err != nil {
		t.Fatal(err)
	}
	if fr.kind != framePush || fr.id != 0 || fr.method != "cc.recall" || !bytes.Equal(fr.body, body) {
		t.Fatalf("decoded push = %+v", fr)
	}
	Recycle(fr.body)
}

// pushEcho is a ctx handler that pushes one frame back to the requesting
// connection for every "poke" request.
func pushEcho(ctx context.Context, req Request) ([]byte, error) {
	switch req.Method {
	case "poke":
		peer, ok := PeerFromContext(ctx)
		if !ok || peer.Pusher == nil {
			return nil, errors.New("no peer in ctx")
		}
		if peer.ClientID != req.ClientID {
			return nil, fmt.Errorf("peer id %d, request id %d", peer.ClientID, req.ClientID)
		}
		body := append([]byte("pushed:"), req.Body...)
		if err := peer.Pusher.Push("cc.recall", body); err != nil {
			return nil, err
		}
		return []byte("ok"), nil
	case "ping":
		return []byte("pong"), nil
	default:
		return nil, errors.New("unknown method")
	}
}

// TestServerPushDelivered exercises the full push path: a handler pushes via
// the request's Peer, the client's dispatcher delivers in order, and the
// handler may issue RPCs on the same connection without deadlocking.
func TestServerPushDelivered(t *testing.T) {
	ep := NewEndpoint(pushEcho)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, ep)
	defer func() { _ = srv.Close() }()

	var mu sync.Mutex
	var got []string
	gotCh := make(chan struct{}, 64)
	var tr *TCPTransport
	var cl *Client
	tr, err = DialTCP(srv.Addr().String(), WithPushHandler(func(method string, body []byte) {
		// Re-entrancy: the handler calls back into the same connection.
		if _, err := cl.Call(context.Background(), "ping", nil); err != nil {
			t.Errorf("RPC from push handler: %v", err)
		}
		mu.Lock()
		got = append(got, method+"/"+string(body))
		mu.Unlock()
		gotCh <- struct{}{}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	cl = NewClient(tr, 7, 3, nil)

	const n = 8
	for i := 0; i < n; i++ {
		if _, err := cl.Call(context.Background(), "poke", []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(5 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case <-gotCh:
		case <-deadline:
			t.Fatalf("only %d of %d pushes delivered", i, n)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		want := "cc.recall/pushed:" + string(byte('a'+i))
		if got[i] != want {
			t.Fatalf("push %d = %q, want %q (in-order delivery)", i, got[i], want)
		}
	}
}

// TestPushIgnoredWithoutHandler pins that a client with no push handler
// drops push frames without failing the connection or leaking buffers.
func TestPushIgnoredWithoutHandler(t *testing.T) {
	ep := NewEndpoint(pushEcho)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, ep)
	defer func() { _ = srv.Close() }()
	tr := dial(t, srv)
	cl := NewClient(tr, 8, 3, nil)
	for i := 0; i < 4; i++ {
		if _, err := cl.Call(context.Background(), "poke", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// The connection must remain healthy after the unsolicited pushes.
	if body, err := cl.Call(context.Background(), "ping", nil); err != nil || string(body) != "pong" {
		t.Fatalf("connection unhealthy after dropped pushes: %q, %v", body, err)
	}
}

// TestConnDownHookFires pins the conn-down notification: once per connection
// death, after pending calls fail.
func TestConnDownHookFires(t *testing.T) {
	ep := NewEndpoint(pushEcho)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, ep)
	down := make(chan error, 4)
	tr := dial(t, srv, WithConnDown(func(err error) { down <- err }))
	cl := NewClient(tr, 9, 1, nil)
	if _, err := cl.Call(context.Background(), "ping", nil); err != nil {
		t.Fatal(err)
	}
	_ = srv.Close()
	select {
	case err := <-down:
		if err == nil {
			t.Fatal("conn-down hook fired with nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("conn-down hook never fired after server close")
	}
	// Rebind on a dead transport must not fire the hook again for the same
	// connection, and Close must not panic.
	tr.Rebind()
	select {
	case <-down:
		t.Fatal("conn-down hook fired twice for one connection")
	case <-time.After(50 * time.Millisecond):
	}
}

// TestPushBufferBalance gates the push path's buffer ownership: a storm of
// pushes delivered (and a batch dropped on a handler-less client) must not
// grow the pooled-buffer ledger.
func TestPushBufferBalance(t *testing.T) {
	ep := NewEndpoint(pushEcho)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, ep)
	defer func() { _ = srv.Close() }()

	delivered := make(chan struct{}, 256)
	tr, err := DialTCP(srv.Addr().String(), WithPushHandler(func(method string, body []byte) {
		delivered <- struct{}{}
	}))
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(tr, 10, 3, nil)

	gets0, puts0 := BufferBalance()
	const n = 100
	// Bodies large enough that the decoded push body is a pooled buffer.
	big := make([]byte, 2048)
	for i := 0; i < n; i++ {
		body, err := cl.Call(context.Background(), "poke", big)
		if err != nil {
			t.Fatal(err)
		}
		cl.ReleaseBody(body)
	}
	deadline := time.After(5 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case <-delivered:
		case <-deadline:
			t.Fatalf("only %d of %d pushes delivered", i, n)
		}
	}
	_ = tr.Close()
	gets1, puts1 := BufferBalance()
	// Every pooled buffer the push path took must have been recycled; the
	// slack allows unrelated concurrent traffic, not a per-push leak.
	if leak := (gets1 - puts1) - (gets0 - puts0); leak > 8 {
		t.Fatalf("push path leaked %d pooled buffers over %d pushes", leak, n)
	}
}
