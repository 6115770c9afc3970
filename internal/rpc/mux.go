package rpc

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// muxConn is the client side of one multiplexed connection.
// Any number of goroutines issue roundTrips concurrently: each send is
// tagged with a fresh frame ID, registered in the pending-call map, and
// queued to the writer goroutine; the reader goroutine decodes response
// frames as they arrive — in any order — and completes the matching call.
// This replaces the serial transport's hold-the-mutex-for-the-round-trip
// design: one connection now keeps many requests in flight, so the server
// can overlap their disk work while earlier responses are still in transit.
//
// Ownership: a pending call is completed by exactly one party — the reader
// (response or expiry), or fail (connection teardown) — whichever removes it
// from the map under pmu; its result channel is buffered so completion never
// blocks. Attempt deadlines are enforced by the reader's socket read
// deadline, always armed to the earliest pending deadline: an expired call
// is failed individually and the connection survives as long as the expiry
// caught the stream at a frame boundary.
//
// Request-body ownership: the writer claims a call under pmu before encoding
// its body and skips calls that have already been removed from the map, and
// every completion path that doesn't go through the writer (expiry, forget,
// teardown) waits for an in-progress claim to clear first. Together these
// guarantee the connection never touches a request body after roundTrip
// returns, so callers may recycle it immediately on any outcome.
type muxConn struct {
	conn net.Conn
	opts tcpOpts

	writeq chan muxWrite
	done   chan struct{} // closed by fail; the connection is then dead
	once   sync.Once
	errv   atomic.Value // error stored before done closes

	nextID atomic.Uint64

	pmu     sync.Mutex
	wcond   *sync.Cond // signals pendingCall.writing transitions (on pmu)
	pending map[uint64]*pendingCall
	dead    bool

	// pushes queues server push frames for the dispatcher goroutine; nil
	// when neither a push handler nor a conn-down hook is configured (push
	// frames are then dropped on the floor, recycled).
	pushes *pushQueue
}

type muxWrite struct {
	id  uint64
	req Request
	pc  *pendingCall
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
	// writing marks the call's request as on the writer's encoder right now
	// (guarded by pmu): completion paths that would hand body ownership back
	// to the caller wait for it to clear.
	writing bool
}

type callResult struct {
	resp Response
	err  error
}

// dialMux establishes a multiplexed connection and starts its reader and
// writer goroutines.
func dialMux(addr string, opts tcpOpts) (*muxConn, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	c := &muxConn{
		conn:    conn,
		opts:    opts,
		writeq:  make(chan muxWrite, 128),
		done:    make(chan struct{}),
		pending: make(map[uint64]*pendingCall),
	}
	c.wcond = sync.NewCond(&c.pmu)
	if opts.pushHandler != nil || opts.connDown != nil {
		c.pushes = newPushQueue()
		go c.pushLoop()
	}
	go c.readLoop()
	go c.writeLoop()
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

// fail tears the connection down once: record the cause, close the socket,
// unblock both loops, and complete every pending call with the cause.
func (c *muxConn) fail(cause error) {
	c.once.Do(func() {
		c.errv.Store(cause)
		close(c.done)
		_ = c.conn.Close()
		c.pmu.Lock()
		calls := c.pending
		c.pending = nil
		c.dead = true
		// A writer mid-encode still holds a detached call's request body;
		// wait it out before completing (the closed socket unblocks it).
		for _, pc := range calls {
			for pc.writing {
				c.wcond.Wait()
			}
		}
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

// roundTrip issues one request and waits for its response or the attempt
// deadline (zero = wait indefinitely).
func (c *muxConn) roundTrip(req Request, deadline time.Time) (Response, error) {
	id := c.nextID.Add(1)
	pc := &pendingCall{ch: make(chan callResult, 1), deadline: deadline}
	c.pmu.Lock()
	if c.dead {
		c.pmu.Unlock()
		return Response{}, c.err()
	}
	c.pending[id] = pc
	// Arm the socket deadline under pmu (see armReadDeadlineLocked): a reader
	// that just decided to block without a deadline is interrupted by this
	// earlier one.
	if !deadline.IsZero() {
		c.armReadDeadlineLocked()
	}
	c.pmu.Unlock()
	select {
	case c.writeq <- muxWrite{id: id, req: req, pc: pc}:
	case <-c.done:
		c.forget(id, pc)
		return Response{}, c.err()
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
		c.forget(id, pc)
		return Response{}, c.err()
	}
}

// forget removes a call that will never be completed through the map. It
// returns only once the writer holds no claim on the call, so the caller
// regains exclusive ownership of the request body.
func (c *muxConn) forget(id uint64, pc *pendingCall) {
	c.pmu.Lock()
	if c.pending != nil {
		delete(c.pending, id)
	}
	for pc.writing {
		c.wcond.Wait()
	}
	c.pmu.Unlock()
}

// armReadDeadlineLocked points the socket read deadline at the earliest
// pending attempt deadline (or clears it). Callers hold pmu, which orders
// every SetReadDeadline: the arming that observes the newest pending set
// always runs last.
func (c *muxConn) armReadDeadlineLocked() {
	var earliest time.Time
	for _, pc := range c.pending {
		if pc.deadline.IsZero() {
			continue
		}
		if earliest.IsZero() || pc.deadline.Before(earliest) {
			earliest = pc.deadline
		}
	}
	_ = c.conn.SetReadDeadline(earliest)
}

// expireOverdue completes every pending call whose deadline has passed with
// cause, reporting whether any were overdue. An overdue call the writer is
// encoding right now is waited out first — completing it early would hand
// its request body back to the caller while the encoder still reads it.
func (c *muxConn) expireOverdue(cause error) bool {
	now := time.Now()
	var expired []*pendingCall
	c.pmu.Lock()
restart:
	for id, pc := range c.pending {
		if pc.deadline.IsZero() || pc.deadline.After(now) {
			continue
		}
		if pc.writing {
			// Wait releases pmu; the map may change under us, so rescan.
			c.wcond.Wait()
			goto restart
		}
		delete(c.pending, id)
		expired = append(expired, pc)
	}
	c.pmu.Unlock()
	for _, pc := range expired {
		pc.ch <- callResult{err: cause}
	}
	return len(expired) > 0
}

// readLoop decodes response frames and completes their pending calls.
func (c *muxConn) readLoop() {
	fr := newFrameReader(c.conn, DefaultMaxFrame)
	for {
		c.pmu.Lock()
		c.armReadDeadlineLocked()
		c.pmu.Unlock()
		frame, consumed, err := fr.read()
		if err != nil {
			var nerr net.Error
			if consumed == 0 && errors.As(err, &nerr) && nerr.Timeout() {
				// Frame boundary: the deadline belonged to one (or a few)
				// overdue calls. Fail just those and keep the connection;
				// re-arming picks up the next earliest deadline. A timeout
				// with nothing overdue was a stale deadline from an
				// already-completed call — just re-arm.
				c.expireOverdue(errors.Join(ErrDropped, err))
				continue
			}
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
		pc := c.pending[frame.id]
		if pc != nil {
			delete(c.pending, frame.id)
			// The response proves the request left the socket, but only the
			// writer's release orders its reads of the body before the
			// caller's reuse of it.
			for pc.writing {
				c.wcond.Wait()
			}
		}
		c.pmu.Unlock()
		if pc == nil {
			// Response to an expired (already failed) call.
			Recycle(frame.body)
			continue
		}
		pc.ch <- callResult{resp: Response{Seq: frame.seq, Body: frame.body, Err: frame.errMsg}}
	}
}

// claimWrite marks w's call as having its request on the encoder. False
// means the call is already gone — expired, forgotten, or torn down — and
// the frame must not be written: its body may belong to someone else again.
// (A skipped frame never reaches the server; the client retries under the
// same sequence number, so the duplicate cache keeps it exactly-once.)
func (c *muxConn) claimWrite(w muxWrite) bool {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if c.dead || c.pending[w.id] != w.pc {
		return false
	}
	w.pc.writing = true
	return true
}

// releaseWrite clears the claim and wakes completion paths waiting on it.
func (c *muxConn) releaseWrite(pc *pendingCall) {
	c.pmu.Lock()
	pc.writing = false
	c.pmu.Unlock()
	c.wcond.Broadcast()
}

// writeLoop encodes queued requests, draining opportunistically so bursts of
// concurrent sends share one flush (and one TCP segment, when they fit).
// Each dequeued request is encoded only under a claim (see claimWrite) so
// body ownership hands back cleanly on every completion path.
func (c *muxConn) writeLoop() {
	bw := bufio.NewWriterSize(c.conn, wireBufferSize)
	for {
		var w muxWrite
		select {
		case <-c.done:
			return
		case w = <-c.writeq:
		}
		if d := c.opts.ioTimeout; d > 0 {
			_ = c.conn.SetWriteDeadline(time.Now().Add(d))
		}
		wrote := false
		for {
			if c.claimWrite(w) {
				err := writeRequest(bw, w.id, &w.req, DefaultMaxFrame)
				c.releaseWrite(w.pc)
				if err != nil {
					c.fail(errors.Join(ErrDropped, err))
					return
				}
				wrote = true
			}
			select {
			case w = <-c.writeq:
				continue
			default:
			}
			break
		}
		if !wrote {
			continue
		}
		if err := bw.Flush(); err != nil {
			c.fail(errors.Join(ErrDropped, err))
			return
		}
	}
}
