package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/fault"
)

// PtTCPServe is the fault point on the TCP server's dispatch path, consulted
// once per decoded request: arm it with an error to drop the request before
// execution (the client sees a timeout and retries), or with a delay to
// stall the handler — the knobs the transport stress tests turn while
// asserting exactly-once effects.
var PtTCPServe = fault.Register("rpc.tcp.serve")

// dialTimeout bounds connection establishment and every re-dial: an attempt
// deadline bounds only a call on a connection, so without it a dial to a
// black-holed address would block forever.
const dialTimeout = 10 * time.Second

// tcpOpts are the shared tunables of the TCP server and transport.
type tcpOpts struct {
	workers      int
	inj          *fault.Injector
	lazyDial     bool
	addrResolver func(prev string) string
	pushHandler  func(method string, body []byte)
	connDown     func(err error)
}

// TCPOption configures Serve or DialTCP.
type TCPOption func(*tcpOpts)

// WithWorkers sets the server's bounded handler pool size (default
// 4×GOMAXPROCS). The pool is shared by every connection:
// decoded frames queue to it and execute as workers free up, so a burst on
// one connection cannot unboundedly multiply goroutines.
func WithWorkers(n int) TCPOption {
	return func(o *tcpOpts) { o.workers = n }
}

// WithInjector attaches a fault injector consulted at PtTCPServe for every
// request the server decodes.
func WithInjector(in *fault.Injector) TCPOption {
	return func(o *tcpOpts) { o.inj = in }
}

// WithLazyDial defers the first connection to the first Send instead of
// dialing eagerly in DialTCP, so a transport can be constructed toward an
// address that is not up yet (a router holds one per shard; some may point
// at servers that only matter after a failover).
func WithLazyDial() TCPOption {
	return func(o *tcpOpts) { o.lazyDial = true }
}

// WithAddrResolver installs a callback consulted before every re-dial: it
// receives the address of the last attempt and returns the address to try
// next (empty keeps the current one). The first dial always targets the
// configured address — the resolver only moves a transport that has already
// tried somewhere — which is what lets a shard client fail over to a backup
// when its primary stops answering, and fall back when the map changes
// again. The callback runs under the transport's lock and must not call
// back into the transport.
func WithAddrResolver(fn func(prev string) string) TCPOption {
	return func(o *tcpOpts) { o.addrResolver = fn }
}

// WithPushHandler installs the client-side receiver for server push frames.
// The handler runs on a dedicated dispatcher goroutine, one push at a time
// in arrival order, never on the connection's reader: it may therefore issue
// RPCs on this very transport (acking a lease recall) without deadlocking. The body is a
// pooled wire buffer owned by the dispatcher; the handler must not retain or
// recycle it past return. The option survives re-dials — every connection
// the transport establishes delivers pushes to the same handler.
func WithPushHandler(fn func(method string, body []byte)) TCPOption {
	return func(o *tcpOpts) { o.pushHandler = fn }
}

// WithConnDown installs a hook fired once per connection after it dies (for
// any reason: network failure, Rebind, Close), on the push dispatcher
// goroutine, after pending calls have been failed and queued pushes dropped.
// A cache layer uses it to invalidate every lease it held through the dead
// connection — the server may have granted conflicting leases to others
// while this client was unreachable.
func WithConnDown(fn func(err error)) TCPOption {
	return func(o *tcpOpts) { o.connDown = fn }
}

func applyTCPOpts(opts []TCPOption) tcpOpts {
	var o tcpOpts
	for _, fn := range opts {
		fn(&o)
	}
	if o.workers <= 0 {
		o.workers = 4 * runtime.GOMAXPROCS(0)
	}
	return o
}

// TCPServer serves an Endpoint over TCP. Each connection gets a reader
// goroutine, and decoded requests dispatch to the server-wide bounded worker
// pool, so one connection's requests execute concurrently and respond out of
// order: the worker that ran a request writes its response (see
// frameWriter). Close stops the listener and waits for connections and
// workers to drain.
type TCPServer struct {
	ep   *Endpoint
	ln   net.Listener
	opts tcpOpts

	work   chan serverTask
	workWG sync.WaitGroup

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]*serverConn
	wg     sync.WaitGroup
}

// serverTask is one decoded request awaiting a pool worker.
type serverTask struct {
	sc  *serverConn
	id  uint64
	req Request
}

// serverConn is the per-connection server state: the frame writer its
// workers and pushers share, and the teardown latch.
type serverConn struct {
	conn net.Conn
	w    *frameWriter
	done chan struct{}
	once sync.Once
}

// shutdown tears the connection down once; safe from any goroutine.
func (sc *serverConn) shutdown() {
	sc.once.Do(func() {
		close(sc.done)
		_ = sc.conn.Close()
		sc.w.close()
	})
}

// Push encodes a one-way push frame to this connection's client (Pusher).
// The body is the caller's again once Push returns. Delivery is
// at-most-once: ErrClosed means the connection is gone and the frame was
// not sent; a nil return means the frame was queued, not that the client
// processed it.
func (sc *serverConn) Push(method string, body []byte) error {
	if method == "" {
		return fmt.Errorf("rpc: push with empty method")
	}
	return sc.w.writePush(method, body)
}

// Serve starts serving ep on ln. It returns immediately; the listener runs
// until Close.
func Serve(ln net.Listener, ep *Endpoint, opts ...TCPOption) *TCPServer {
	s := &TCPServer{ep: ep, ln: ln, opts: applyTCPOpts(opts), conns: make(map[net.Conn]*serverConn)}
	s.work = make(chan serverTask, 4*s.opts.workers)
	for i := 0; i < s.opts.workers; i++ {
		s.workWG.Add(1)
		go s.worker()
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		sc := &serverConn{conn: conn, done: make(chan struct{})}
		sc.w = newFrameWriter(conn, func(error) { sc.shutdown() })
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = sc
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveMuxConn(sc)
	}
}

// dropped consults the fault injector for one decoded request: true means
// the request is dropped before execution (the paper's lost message); an
// armed delay stalls here, on the worker, before the handler runs.
func (s *TCPServer) dropped() bool {
	inj := s.opts.inj
	if inj == nil {
		return false
	}
	if err := inj.Err(PtTCPServe); err != nil {
		return true
	}
	inj.Hit(PtTCPServe)
	return false
}

// worker executes queued requests from any connection. The request body is
// a pooled wire buffer owned by the worker; handlers must not retain it
// past return, nor alias it in their response (every handler here decodes
// into its own structures), so it is recycled as soon as the handler
// finishes.
func (s *TCPServer) worker() {
	defer s.workWG.Done()
	for task := range s.work {
		if s.dropped() {
			Recycle(task.req.Body)
			continue
		}
		// The handler sees the connection as a Peer: the wire-level client
		// identity plus a Pusher for one-way frames back to this client —
		// what a lease-granting cache layer needs to recall later.
		ctx := ContextWithPeer(context.Background(), Peer{ClientID: task.req.ClientID, Pusher: task.sc})
		resp := s.ep.Handle(ctx, task.req)
		Recycle(task.req.Body)
		// A dead connection refuses the frame; the effect happened, and the
		// duplicate cache answers the client's retry on a fresh connection.
		// A response too large to encode drops the connection, as the
		// client cannot be answered on it.
		if err := task.sc.w.writeResponse(task.id, &resp); err != nil {
			task.sc.shutdown()
		}
	}
}

// serveMuxConn reads frames off one connection and dispatches them to the
// worker pool, whose workers write the responses back in completion order.
func (s *TCPServer) serveMuxConn(sc *serverConn) {
	defer s.wg.Done()
	defer func() {
		sc.shutdown()
		s.mu.Lock()
		delete(s.conns, sc.conn)
		s.mu.Unlock()
	}()

	fr := newFrameReader(sc.conn, DefaultMaxFrame)
	for {
		frame, err := fr.read()
		if err != nil {
			return
		}
		if frame.kind != frameRequest && frame.kind != frameRequestTraced {
			Recycle(frame.body)
			return
		}
		task := serverTask{
			sc: sc,
			id: frame.id,
			req: Request{
				ClientID: frame.clientID,
				Seq:      frame.seq,
				Method:   frame.method,
				Body:     frame.body,
				TraceID:  frame.traceID,
				SpanID:   frame.spanID,
			},
		}
		select {
		case s.work <- task:
		case <-sc.done:
			Recycle(frame.body)
			return
		}
	}
}

// Close stops the server, closes all connections, and waits for the worker
// pool to drain.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for _, sc := range s.conns {
		sc.shutdown()
	}
	s.mu.Unlock()
	s.wg.Wait()
	close(s.work)
	s.workWG.Wait()
	return err
}

// TCPTransport is a client transport over one TCP connection, reconnecting
// on failure. Sends multiplex: any number of goroutines issue concurrent
// Sends over the single connection, each tagged with a frame ID and completed
// when its response frame arrives — out of order, while later requests are
// already on the wire.
type TCPTransport struct {
	opts tcpOpts

	mu     sync.Mutex
	addr   string // current dial target; may move via WithAddrResolver
	tried  bool   // at least one dial attempted (success or failure)
	closed bool
	mc     *muxConn
}

var (
	_ Transport         = (*TCPTransport)(nil)
	_ DeadlineTransport = (*TCPTransport)(nil)
)

// callerOwnsBodies reports that TCP response bodies are exclusively the
// caller's: they are decoded into pooled buffers handed to exactly one
// waiter.
func (t *TCPTransport) callerOwnsBodies() bool { return true }

// DialTCP connects to a TCPServer (or, with WithLazyDial, prepares to on
// the first Send).
func DialTCP(addr string, opts ...TCPOption) (*TCPTransport, error) {
	t := &TCPTransport{addr: addr, opts: applyTCPOpts(opts)}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.opts.lazyDial {
		return t, nil
	}
	t.tried = true
	mc, err := dialMux(addr, t.opts)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	t.mc = mc
	return t, nil
}

// resolveAddrLocked applies the address resolver ahead of a (re-)dial. The
// very first attempt always goes to the configured address; every later
// attempt lets the resolver move the target first — so a dead primary is
// retried once, then the transport rotates to wherever the resolver points
// (typically the shard's backup, then back as the map settles).
func (t *TCPTransport) resolveAddrLocked() {
	if t.tried && t.opts.addrResolver != nil {
		if next := t.opts.addrResolver(t.addr); next != "" {
			t.addr = next
		}
	}
	t.tried = true
}

// errRebound marks a connection dropped by Rebind rather than by a network
// failure; joined with ErrDropped so Client retries see a retriable error.
var errRebound = errors.New("rpc: transport rebound")

// Rebind drops the current connection so the next send re-dials, consulting
// the address resolver for a possibly different target. In-flight calls on
// the dropped connection fail as ErrDropped and retry through the Client's
// usual path. Rebind is what a retry policy calls when the server answers
// but says "not me" — the connection is healthy, the address is wrong.
func (t *TCPTransport) Rebind() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	if t.mc != nil {
		t.mc.fail(errors.Join(ErrDropped, errRebound))
		t.mc = nil
	}
}

// Send issues one request and waits for its response, with no time bound.
// A broken connection is re-dialed on the next send and the failure surfaces
// as ErrDropped, so the Client's retry (and the server's duplicate cache)
// provide the exactly-once behaviour.
func (t *TCPTransport) Send(req Request) (Response, error) {
	return t.SendWithDeadline(req, time.Time{})
}

// SendWithDeadline is Send bounded by an absolute attempt deadline (zero:
// none). Past it the peer is treated as gone: the connection drops, and
// every call pending on it fails as ErrDropped (see muxConn).
func (t *TCPTransport) SendWithDeadline(req Request, deadline time.Time) (Response, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return Response{}, ErrClosed
	}
	mc := t.mc
	if mc == nil || mc.isDead() {
		t.resolveAddrLocked()
		fresh, err := dialMux(t.addr, t.opts)
		if err != nil {
			t.mu.Unlock()
			return Response{}, errors.Join(ErrDropped, fmt.Errorf("rpc: dial %s: %w", t.addr, err))
		}
		t.mc = fresh
		mc = fresh
	}
	t.mu.Unlock()
	return mc.roundTrip(req, deadline)
}

// Close closes the connection.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	if t.mc != nil {
		t.mc.close()
		t.mc = nil
	}
	return nil
}
