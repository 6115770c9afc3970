package rpc

import (
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// muxConn is the client side of one multiplexed connection.
// Any number of goroutines issue roundTrips concurrently: each send is
// tagged with a fresh frame ID, registered in the pending-call map, and
// encoded by its caller onto the connection's frameWriter; the reader
// goroutine decodes response frames as they arrive — in any order — and
// completes the matching call.
// This replaces the serial transport's hold-the-mutex-for-the-round-trip
// design: one connection now keeps many requests in flight, so the server
// can overlap their disk work while earlier responses are still in transit.
//
// Ownership: a pending call is completed by exactly one party — the reader
// (a response), or fail (connection teardown) — whichever removes it from
// the map under pmu; its result channel is buffered so completion never
// blocks.
//
// Time bound: the socket's read deadline is the connection's one deadline,
// armed no later than the earliest pending attempt deadline. When it fires
// with a call overdue, the peer is treated as gone: the connection fails,
// every call pending on it gets ErrDropped, and closing the socket also
// returns a flusher blocked writing to a peer that stopped reading. The
// Client retries on a fresh connection, where the endpoint's duplicate
// cache (or its wait on the still-running original) keeps the call
// exactly-once. The deadline is moved only when a call needs an earlier one
// or when it fires with no call overdue, not per call: moving a socket
// deadline re-arms a runtime timer, which wakes the network poller.
//
// Request-body ownership: roundTrip copies the request into the writer's
// pending buffer before it waits, so the connection never touches a request
// body after roundTrip returns and callers may recycle it on any outcome.
type muxConn struct {
	conn net.Conn
	opts tcpOpts
	w    *frameWriter

	done chan struct{} // closed by fail; the connection is then dead
	once sync.Once
	errv atomic.Value // error stored before done closes

	nextID atomic.Uint64

	pmu     sync.Mutex
	pending map[uint64]*pendingCall
	dead    bool
	// armed is the read deadline last set on the socket (zero: none), never
	// later than a pending call's attempt deadline.
	armed time.Time

	// pushes queues server push frames for the dispatcher goroutine; nil
	// when neither a push handler nor a conn-down hook is configured (push
	// frames are then dropped on the floor, recycled).
	pushes *pushQueue
}

// pushedFrame is one server push awaiting the dispatcher; body is a pooled
// wire buffer the dispatcher recycles after the handler returns.
type pushedFrame struct {
	method string
	body   []byte
}

// pushQueue hands server pushes from the reader goroutine to a dedicated
// dispatcher goroutine. The handoff is essential, not a convenience: a push
// handler typically issues RPCs of its own on the same connection (a lease
// recall is acked back to the server), which would deadlock if it ran on the
// reader — the goroutine that must keep decoding responses. The queue is
// unbounded; it is drained as fast as the handler runs, and a handler that
// wedges only grows this queue, never stalls the reader.
type pushQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	frames []pushedFrame
	dead   bool
}

func newPushQueue() *pushQueue {
	q := &pushQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// put enqueues one push; ownership of body transfers to the queue.
func (q *pushQueue) put(method string, body []byte) {
	q.mu.Lock()
	if q.dead {
		q.mu.Unlock()
		Recycle(body)
		return
	}
	q.frames = append(q.frames, pushedFrame{method, body})
	q.mu.Unlock()
	q.cond.Signal()
}

// take blocks for the next push; false means the connection died. Frames
// still queued at death are recycled undelivered — a recall for a connection
// that no longer exists is moot, the conn-down hook invalidates everything.
func (q *pushQueue) take() (pushedFrame, bool) {
	q.mu.Lock()
	for !q.dead && len(q.frames) == 0 {
		q.cond.Wait()
	}
	if q.dead {
		frames := q.frames
		q.frames = nil
		q.mu.Unlock()
		for _, fr := range frames {
			Recycle(fr.body)
		}
		return pushedFrame{}, false
	}
	fr := q.frames[0]
	q.frames = q.frames[1:]
	q.mu.Unlock()
	return fr, true
}

// kill unblocks take with the death verdict.
func (q *pushQueue) kill() {
	q.mu.Lock()
	q.dead = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

type pendingCall struct {
	ch       chan callResult
	deadline time.Time
}

type callResult struct {
	resp Response
	err  error
}

// dialMux establishes a multiplexed connection and starts its reader
// goroutine (and the push dispatcher, when pushes have somewhere to go).
func dialMux(addr string, opts tcpOpts) (*muxConn, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	c := &muxConn{
		conn:    conn,
		opts:    opts,
		done:    make(chan struct{}),
		pending: make(map[uint64]*pendingCall),
	}
	c.w = newFrameWriter(conn, func(err error) { c.fail(errors.Join(ErrDropped, err)) })
	if opts.pushHandler != nil || opts.connDown != nil {
		c.pushes = newPushQueue()
		go c.pushLoop()
	}
	go c.readLoop()
	return c, nil
}

// pushLoop delivers server pushes to the configured handler, one at a time
// in arrival order, and fires the conn-down hook exactly once after the
// connection dies. Handler contract: the body is a pooled buffer owned by
// the loop — handlers must not retain or recycle it past return.
func (c *muxConn) pushLoop() {
	for {
		fr, ok := c.pushes.take()
		if !ok {
			break
		}
		if h := c.opts.pushHandler; h != nil {
			h(fr.method, fr.body)
		}
		Recycle(fr.body)
	}
	if down := c.opts.connDown; down != nil {
		down(c.err())
	}
}

// isDead reports whether the connection has been torn down.
func (c *muxConn) isDead() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// err returns the teardown cause (after done is closed).
func (c *muxConn) err() error {
	if e, ok := c.errv.Load().(error); ok {
		return e
	}
	return ErrClosed
}

// fail tears the connection down once: record the cause, close the socket
// and the writer, and complete every pending call with the cause.
func (c *muxConn) fail(cause error) {
	c.once.Do(func() {
		c.errv.Store(cause)
		close(c.done)
		_ = c.conn.Close()
		c.w.close()
		c.pmu.Lock()
		calls := c.pending
		c.pending = nil
		c.dead = true
		c.pmu.Unlock()
		for _, pc := range calls {
			pc.ch <- callResult{err: cause}
		}
		if c.pushes != nil {
			c.pushes.kill()
		}
	})
}

// close tears the connection down as an orderly local close.
func (c *muxConn) close() { c.fail(ErrClosed) }

// roundTrip issues one request and waits for its response, or for the
// connection to fail — which the attempt deadline forces once it passes
// (zero = wait indefinitely).
func (c *muxConn) roundTrip(req Request, deadline time.Time) (Response, error) {
	id := c.nextID.Add(1)
	pc := &pendingCall{ch: make(chan callResult, 1), deadline: deadline}
	c.pmu.Lock()
	if c.dead {
		c.pmu.Unlock()
		return Response{}, c.err()
	}
	c.pending[id] = pc
	// Under pmu, which orders every SetReadDeadline: a reader blocked on a
	// later deadline, or none, is interrupted by this earlier one.
	if !deadline.IsZero() && (c.armed.IsZero() || deadline.Before(c.armed)) {
		c.setReadDeadlineLocked(deadline)
	}
	c.pmu.Unlock()
	// ErrClosed means the connection is going down, and its teardown
	// completes the call; any other error refused the frame before a byte
	// of it was queued.
	if err := c.w.writeRequest(id, &req); err != nil && !errors.Is(err, ErrClosed) {
		c.forget(id)
		return Response{}, err
	}
	select {
	case r := <-pc.ch:
		return r.resp, r.err
	case <-c.done:
		// The teardown may have raced a delivery; prefer the delivered result.
		select {
		case r := <-pc.ch:
			return r.resp, r.err
		default:
		}
		c.forget(id)
		return Response{}, c.err()
	}
}

// forget removes a call that will never be completed through the map.
func (c *muxConn) forget(id uint64) {
	c.pmu.Lock()
	c.removeLocked(id)
	c.pmu.Unlock()
}

// removeLocked takes call id out of the pending map, if it is still there,
// and returns it.
func (c *muxConn) removeLocked(id uint64) *pendingCall {
	pc := c.pending[id]
	delete(c.pending, id)
	return pc
}

// setReadDeadlineLocked arms the socket read deadline at d (zero clears it).
func (c *muxConn) setReadDeadlineLocked(d time.Time) {
	c.armed = d
	_ = c.conn.SetReadDeadline(d)
}

// Read is the socket as the frame reader sees it. A read deadline that
// fires with no call overdue belonged to a call that has completed: the
// deadline is re-armed at the earliest one still pending and the read goes
// on, even mid-frame, so only an overdue call's timeout reaches the reader.
func (c *muxConn) Read(p []byte) (int, error) {
	for {
		n, err := c.conn.Read(p)
		if n > 0 || !errors.Is(err, os.ErrDeadlineExceeded) || c.overdue() {
			return n, err
		}
	}
}

// overdue reports whether a pending call's attempt deadline has passed. When
// none has, it re-arms the socket, whose deadline just fired, at the
// earliest pending one.
func (c *muxConn) overdue() bool {
	now := time.Now()
	c.pmu.Lock()
	defer c.pmu.Unlock()
	var earliest time.Time
	for _, pc := range c.pending {
		if d := pc.deadline; !d.IsZero() && (earliest.IsZero() || d.Before(earliest)) {
			earliest = d
		}
	}
	if !earliest.IsZero() && !earliest.After(now) {
		return true
	}
	c.setReadDeadlineLocked(earliest)
	return false
}

// readLoop decodes response frames and completes their pending calls.
func (c *muxConn) readLoop() {
	fr := newFrameReader(c, DefaultMaxFrame)
	for {
		frame, err := fr.read()
		if err != nil {
			c.fail(errors.Join(ErrDropped, err))
			return
		}
		if frame.kind == framePush {
			if c.pushes != nil {
				c.pushes.put(frame.method, frame.body)
			} else {
				// No handler configured: pushes are advisory, drop them.
				Recycle(frame.body)
			}
			continue
		}
		if frame.kind != frameResponse {
			c.fail(errors.Join(ErrDropped, errors.New("rpc: request frame on client connection")))
			return
		}
		c.pmu.Lock()
		pc := c.removeLocked(frame.id)
		c.pmu.Unlock()
		if pc == nil {
			// Response to a call already forgotten.
			Recycle(frame.body)
			continue
		}
		pc.ch <- callResult{resp: Response{Seq: frame.seq, Body: frame.body, Err: frame.errMsg}}
	}
}
