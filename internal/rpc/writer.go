package rpc

import (
	"net"
	"sync"
)

// frameWriter is the send half of one connection, client or server side.
// There is no writer goroutine: the goroutine that makes a frame appends it,
// encoded, to the pending buffer under mu, and if no write is in progress it
// becomes the flusher — it writes the pending bytes outside mu, and keeps
// writing until nothing is pending. A producer that arrives during a write
// appends its frame and returns, so the frames of concurrent producers
// still leave in one system call, and none of them waits for another's.
//
// A body of directBodySize or more is not copied: its producer waits until
// it can be the flusher and writes the pending bytes, its frame's head
// last, and then the body from the caller's slice, in one vectored write.
//
// Backpressure: a producer waits while a write is in progress and at least
// wireBufferSize bytes are pending, so a peer that stops reading bounds the
// bytes queued behind it. A failed write kills the writer and tears the
// connection down through fail; later producers get ErrClosed. A write has
// no deadline of its own: a flusher blocked on a peer that stopped reading
// returns when the connection is closed under it (on the client, by the
// expiry of a call's attempt deadline).
type frameWriter struct {
	conn net.Conn
	fail func(error) // tears the connection down after a failed write

	mu      sync.Mutex
	drained *sync.Cond // on mu: a write took the pending bytes or ended, or the writer died
	pending []byte
	spare   []byte // the last written buffer, reused as the next pending one
	writing bool
	direct  int // producers waiting to write a large body; others let them in first
	dead    bool

	// vec and bufs hold a vectored write's two slices, the flusher's alone:
	// kept here, they cost the write no allocation.
	vec  [2][]byte
	bufs net.Buffers
}

const (
	// directBodySize is the smallest body written from the caller's slice
	// instead of being copied into the pending buffer.
	directBodySize = wireBufferSize
	// maxKeptWriteBuffer caps the capacity of a written buffer kept for
	// reuse.
	maxKeptWriteBuffer = 2 * wireBufferSize
	// headScratch sizes the stack buffer a frame's head is encoded into
	// before it is queued; a head with a longer method name or error
	// message allocates.
	headScratch = 128
)

func newFrameWriter(conn net.Conn, fail func(error)) *frameWriter {
	w := &frameWriter{conn: conn, fail: fail}
	w.drained = sync.NewCond(&w.mu)
	return w
}

// writeRequest sends one request frame. The request body is the caller's
// again once it returns. The error is the encoder's (nothing was queued and
// the connection is intact) or ErrClosed.
func (w *frameWriter) writeRequest(id uint64, req *Request) error {
	var hb [headScratch]byte
	head, err := appendRequest(hb[:0], id, req, DefaultMaxFrame)
	if err != nil {
		return err
	}
	return w.write(head, req.Body)
}

// writeResponse is writeRequest for a response frame.
func (w *frameWriter) writeResponse(id uint64, resp *Response) error {
	var hb [headScratch]byte
	head, err := appendResponse(hb[:0], id, resp, DefaultMaxFrame)
	if err != nil {
		return err
	}
	return w.write(head, resp.Body)
}

// writePush is writeRequest for a push frame.
func (w *frameWriter) writePush(method string, body []byte) error {
	var hb [headScratch]byte
	head, err := appendPush(hb[:0], method, body, DefaultMaxFrame)
	if err != nil {
		return err
	}
	return w.write(head, body)
}

// write sends one frame, head then body; neither is retained past return.
// ErrClosed means the writer is dead and the frame was dropped.
func (w *frameWriter) write(head, body []byte) error {
	direct := len(body) >= directBodySize
	w.mu.Lock()
	if direct {
		w.direct++
		for w.writing && !w.dead {
			w.drained.Wait()
		}
		w.direct--
	} else {
		for (w.direct > 0 || w.writing && len(w.pending) >= wireBufferSize) && !w.dead {
			w.drained.Wait()
		}
	}
	if w.dead {
		w.mu.Unlock()
		return ErrClosed
	}
	w.pending = append(w.pending, head...)
	if !direct {
		w.pending = append(w.pending, body...)
		body = nil
	}
	if w.writing {
		// The write in progress takes this frame with the next batch.
		w.mu.Unlock()
		return nil
	}
	w.flushLocked(body)
	return nil
}

// flushLocked makes the calling producer the flusher: it writes the pending
// bytes, then tail, and keeps writing until nothing is pending. Called with
// mu held and no write in progress; returns with mu released.
func (w *frameWriter) flushLocked(tail []byte) {
	w.writing = true
	var err error
	for len(w.pending) > 0 && !w.dead && err == nil {
		buf := w.pending
		w.pending, w.spare = w.spare, nil
		w.mu.Unlock()
		w.drained.Broadcast()
		if tail != nil {
			w.vec = [2][]byte{buf, tail}
			w.bufs = w.vec[:]
			_, err = w.bufs.WriteTo(w.conn)
			w.vec, tail = [2][]byte{}, nil // the body is the caller's again
		} else {
			_, err = w.conn.Write(buf)
		}
		w.mu.Lock()
		if cap(buf) <= maxKeptWriteBuffer {
			w.spare = buf[:0]
		}
	}
	w.writing = false
	w.dead = w.dead || err != nil
	w.mu.Unlock()
	w.drained.Broadcast()
	if err != nil {
		w.fail(err)
	}
}

// close kills the writer: queued frames are dropped, and producers waiting
// on the bound or arriving later get ErrClosed.
func (w *frameWriter) close() {
	w.mu.Lock()
	w.dead = true
	w.pending = w.pending[:0]
	w.mu.Unlock()
	w.drained.Broadcast()
}
