package rpc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
)

// The wire format frames every message with a 4-byte big-endian length
// prefix followed by a tagged payload:
//
//	frame    := length(4) payload               length = len(payload)
//	payload  := kind(1) frameID(8) rest
//	request  := kind=1 frameID clientID(8) seq(8) mlen(2) blen(4) method body
//	response := kind=2 frameID seq(8)      elen(2) blen(4) errmsg body
//	traced   := kind=3 frameID clientID(8) seq(8) traceID(8) spanID(8) mlen(2) blen(4) method body
//	push     := kind=4 frameID=0 mlen(2) blen(4) method body
//
// A traced request (kind 3) is a request carrying the caller's span
// identity; the server endpoint continues that span tree instead of rooting
// its own. Untraced requests use kind 1 with the exact pre-trace layout, so
// tracing off means no frame growth and no extra work.
//
// A push (kind 4) is a one-way server-to-client notification — the cache
// coherence layer's lease recalls ride it. It reuses the kind-tag extension
// point the traced frame introduced: old clients reject unknown kinds, so
// both ends must speak this revision of the wire before a server may
// push. Pushes carry no frameID (there is no reply to match) and no
// client/seq identity (they are not idempotent requests); delivery is
// at-most-once, exactly as reliable as the connection itself.
//
// The frameID tags each request so responses can return out of order over a
// multiplexed connection; it is connection-local and never reaches the
// Endpoint (idempotency still keys on ClientID/Seq). The codec carries no
// per-frame type metadata. A frame is written by the goroutine that made it
// (see frameWriter): its head is appended to the connection's pending
// buffer, and so is a small body — the one copy of such a payload, which
// hands the body back to its owner as soon as the call returns — while a
// large body goes to the socket straight from the caller's slice. On decode
// the body is read from the socket straight into a recycled buffer from the
// frame free lists below.

// Frame kinds.
const (
	frameRequest       byte = 1
	frameResponse      byte = 2
	frameRequestTraced byte = 3
	framePush          byte = 4
)

// Fixed header sizes after the 4-byte length prefix.
const (
	frameCommonLen        = 1 + 8                   // kind + frameID
	requestFixedLen       = 8 + 8 + 2 + 4           // clientID seq mlen blen
	requestTracedFixedLen = requestFixedLen + 8 + 8 // + traceID spanID
	responseFixedLen      = 8 + 2 + 4               // seq elen blen
	pushFixedLen          = 2 + 4                   // mlen blen
)

// DefaultMaxFrame bounds one frame's payload (16 MB); larger frames are
// rejected on both encode and decode so a corrupt length prefix cannot make
// the reader allocate unboundedly.
const DefaultMaxFrame = 16 << 20

// wireBufferSize sizes the per-connection bufio reader, and bounds the bytes
// a connection's frameWriter lets pile up behind a write in progress.
const wireBufferSize = 64 << 10

// bufFree recycles wire buffers in power-of-two size classes —
// cache.Pool-style explicit bounded free lists rather than sync.Pool, so
// reuse is deterministic and unaffected by GC timing. Class i holds buffers
// of capacity exactly 1<<i.
type bufFree struct {
	mu   sync.Mutex
	free [bufMaxClass + 1][][]byte
}

const (
	bufMinClass = 9  // smallest pooled buffer: 512 B
	bufMaxClass = 21 // largest pooled buffer: 2 MB; bigger frames go unpooled
	bufPerClass = 32 // free buffers retained per class
)

var frameBufs bufFree

// bufGets / bufPuts count pooled-class buffer handouts (getBuf / Buffer)
// and returns (Recycle), whether or not a free list actually absorbed the
// buffer. They measure the ownership discipline, not list occupancy: a code
// path that obtains pooled buffers and abandons them grows gets−puts without
// bound, which is exactly what the free-list balance CI gate asserts against
// (see BufferBalance). bufMisses counts the gets a free list could not serve,
// which allocated: the free-list hit rate is 1 − misses/gets, and a path that
// keeps a frame instead of handing it back shows as one miss per call.
// Buffers above bufMaxClass are unpooled and uncounted.
var bufGets, bufPuts, bufMisses atomic.Int64

// BufferBalance returns how many pooled-class buffers have been handed out
// and returned since process start. gets−puts is the number currently owned
// by callers or leaked to the garbage collector; a workload that recycles
// every buffer it takes keeps the difference bounded by its in-flight count.
func BufferBalance() (gets, puts int64) { return bufGets.Load(), bufPuts.Load() }

// BufferMisses returns how many of BufferBalance's gets found their free list
// empty and allocated.
func BufferMisses() int64 { return bufMisses.Load() }

// getBuf returns a buffer of length n backed by a pooled (or fresh)
// power-of-two allocation. Contents are undefined; callers overwrite fully.
func getBuf(n int) []byte {
	if n <= 0 {
		return nil
	}
	class := bits.Len(uint(n - 1))
	if class < bufMinClass {
		class = bufMinClass
	}
	if class > bufMaxClass {
		return make([]byte, n)
	}
	bufGets.Add(1)
	frameBufs.mu.Lock()
	if l := frameBufs.free[class]; len(l) > 0 {
		buf := l[len(l)-1]
		frameBufs.free[class] = l[:len(l)-1]
		frameBufs.mu.Unlock()
		return buf[:n]
	}
	frameBufs.mu.Unlock()
	bufMisses.Add(1)
	return make([]byte, n, 1<<class)
}

// Buffer returns a buffer of length n drawn from the frame free lists (or
// freshly allocated). Contents are undefined; callers overwrite fully.
// Codec layers above the transport (e.g. rpcfs's binary argument marshaling)
// use it so request bodies come from — and return to, via Recycle — the same
// bounded pools as the wire frames themselves.
func Buffer(n int) []byte { return getBuf(n) }

// Recycle returns a wire buffer to the frame free lists. Bodies handed out
// by the binary transport (Response.Body on the client, Request.Body inside
// a handler) are backed by these lists, and whoever was handed one recycles
// it when it has finished decoding — copying out first whatever must outlive
// the frame. A forgotten buffer is collected, not leaked, but costs the next
// get of its class an allocation (BufferMisses counts them), so every hot
// path recycles. Recycling must happen at most once per buffer, and the
// caller must not touch the buffer afterwards. Slices not obtained from the
// transport are ignored.
func Recycle(buf []byte) {
	c := cap(buf)
	if c == 0 || c&(c-1) != 0 {
		return // not one of ours: pooled buffers have power-of-two capacity
	}
	class := bits.Len(uint(c - 1))
	if class < bufMinClass || class > bufMaxClass {
		return
	}
	bufPuts.Add(1)
	frameBufs.mu.Lock()
	if len(frameBufs.free[class]) < bufPerClass {
		frameBufs.free[class] = append(frameBufs.free[class], buf[:0])
	}
	frameBufs.mu.Unlock()
}

// wireFrame is one decoded frame. body is pooled (see Recycle); ownership
// passes to whoever the reader hands the frame to.
type wireFrame struct {
	kind     byte
	id       uint64
	clientID uint64 // request only
	seq      uint64
	traceID  uint64 // traced request only
	spanID   uint64 // traced request only
	method   string // request only
	errMsg   string // response only
	body     []byte
}

// maxInternedMethods caps a frameReader's intern map: the real method set is
// ~25 names, and a peer inventing names (each up to 64 KB) must not grow
// per-connection memory without bound.
const maxInternedMethods = 64

// frameReader decodes frames from one connection. It is owned by a single
// reader goroutine; the method intern map keeps steady-state decoding free
// of string allocations for the first maxInternedMethods distinct names a
// connection sends, and later names are plain allocations.
type frameReader struct {
	br       *bufio.Reader
	maxFrame int
	methods  map[string]string
	scratch  [256]byte
}

func newFrameReader(r io.Reader, maxFrame int) *frameReader {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &frameReader{
		br:       bufio.NewReaderSize(r, wireBufferSize),
		maxFrame: maxFrame,
		methods:  make(map[string]string),
	}
}

// read decodes the next frame. consumed reports how many bytes of the frame
// were read off the stream before an error: a timeout with consumed == 0
// left the stream at a frame boundary and the connection is still usable; a
// timeout mid-frame has lost the stream position and the connection must be
// dropped.
func (r *frameReader) read() (fr wireFrame, consumed int, err error) {
	// The header parses out of the reader's persistent scratch space: a
	// stack array would escape through io.ReadFull and cost an allocation
	// per frame.
	hdr := r.scratch[:4+frameCommonLen+requestTracedFixedLen]
	if consumed, err = r.fill(hdr[:4], consumed); err != nil {
		return fr, consumed, err
	}
	frameLen := int(binary.BigEndian.Uint32(hdr[:4]))
	if frameLen < frameCommonLen || frameLen > r.maxFrame {
		return fr, consumed, fmt.Errorf("rpc: bad frame length %d", frameLen)
	}
	if consumed, err = r.fill(hdr[4:4+frameCommonLen], consumed); err != nil {
		return fr, consumed, err
	}
	fr.kind = hdr[4]
	fr.id = binary.BigEndian.Uint64(hdr[5:])
	var strLen, bodyLen, fixed int
	switch fr.kind {
	case frameRequest:
		fixed = requestFixedLen
		p := hdr[4+frameCommonLen:]
		if consumed, err = r.fill(p[:fixed], consumed); err != nil {
			return fr, consumed, err
		}
		fr.clientID = binary.BigEndian.Uint64(p[0:])
		fr.seq = binary.BigEndian.Uint64(p[8:])
		strLen = int(binary.BigEndian.Uint16(p[16:]))
		bodyLen = int(binary.BigEndian.Uint32(p[18:]))
	case frameRequestTraced:
		fixed = requestTracedFixedLen
		p := hdr[4+frameCommonLen:]
		if consumed, err = r.fill(p[:fixed], consumed); err != nil {
			return fr, consumed, err
		}
		fr.clientID = binary.BigEndian.Uint64(p[0:])
		fr.seq = binary.BigEndian.Uint64(p[8:])
		fr.traceID = binary.BigEndian.Uint64(p[16:])
		fr.spanID = binary.BigEndian.Uint64(p[24:])
		strLen = int(binary.BigEndian.Uint16(p[32:]))
		bodyLen = int(binary.BigEndian.Uint32(p[34:]))
	case frameResponse:
		fixed = responseFixedLen
		p := hdr[4+frameCommonLen:]
		if consumed, err = r.fill(p[:fixed], consumed); err != nil {
			return fr, consumed, err
		}
		fr.seq = binary.BigEndian.Uint64(p[0:])
		strLen = int(binary.BigEndian.Uint16(p[8:]))
		bodyLen = int(binary.BigEndian.Uint32(p[10:]))
	case framePush:
		fixed = pushFixedLen
		p := hdr[4+frameCommonLen:]
		if consumed, err = r.fill(p[:fixed], consumed); err != nil {
			return fr, consumed, err
		}
		strLen = int(binary.BigEndian.Uint16(p[0:]))
		bodyLen = int(binary.BigEndian.Uint32(p[2:]))
	default:
		return fr, consumed, fmt.Errorf("rpc: unknown frame kind %d", fr.kind)
	}
	if frameLen != frameCommonLen+fixed+strLen+bodyLen {
		return fr, consumed, fmt.Errorf("rpc: inconsistent frame: length %d, fields %d+%d",
			frameLen, strLen, bodyLen)
	}
	s := r.scratch[:]
	if strLen > len(s) {
		s = make([]byte, strLen)
	}
	if consumed, err = r.fill(s[:strLen], consumed); err != nil {
		return fr, consumed, err
	}
	if fr.kind == frameRequest || fr.kind == frameRequestTraced || fr.kind == framePush {
		m, ok := r.methods[string(s[:strLen])]
		if !ok {
			m = string(s[:strLen])
			if len(r.methods) < maxInternedMethods {
				r.methods[m] = m
			}
		}
		fr.method = m
	} else if strLen > 0 {
		fr.errMsg = string(s[:strLen])
	}
	if bodyLen > 0 {
		fr.body = getBuf(bodyLen)
		if consumed, err = r.fill(fr.body, consumed); err != nil {
			Recycle(fr.body)
			fr.body = nil
			return fr, consumed, err
		}
	}
	return fr, consumed, nil
}

// fill is io.ReadFull with byte accounting for the boundary check in read.
func (r *frameReader) fill(p []byte, consumed int) (int, error) {
	n, err := io.ReadFull(r.br, p)
	return consumed + n, err
}

// appendRequest appends the head of one request frame to dst — everything
// up to its body, which follows it on the wire (see frameWriter.write). A
// frame that cannot be encoded is refused whole: the error comes back with
// dst as it was, so a stream never carries half a frame. Appending onto a
// retained buffer allocates nothing.
func appendRequest(dst []byte, id uint64, req *Request, maxFrame int) ([]byte, error) {
	if len(req.Method) > 0xFFFF {
		return dst, fmt.Errorf("rpc: method name %d bytes long", len(req.Method))
	}
	// A request with span identity encodes as the traced frame kind; an
	// untraced request keeps the exact pre-trace layout, so disabling
	// tracing costs nothing on the wire.
	kind, fixed := frameRequest, requestFixedLen
	if req.TraceID != 0 {
		kind, fixed = frameRequestTraced, requestTracedFixedLen
	}
	frameLen := frameCommonLen + fixed + len(req.Method) + len(req.Body)
	if maxFrame > 0 && frameLen > maxFrame {
		return dst, fmt.Errorf("rpc: request frame %d bytes exceeds limit %d", frameLen, maxFrame)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(frameLen))
	dst = append(dst, kind)
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = binary.BigEndian.AppendUint64(dst, req.ClientID)
	dst = binary.BigEndian.AppendUint64(dst, req.Seq)
	if kind == frameRequestTraced {
		dst = binary.BigEndian.AppendUint64(dst, req.TraceID)
		dst = binary.BigEndian.AppendUint64(dst, req.SpanID)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(req.Method)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(req.Body)))
	return append(dst, req.Method...), nil
}

// appendPush appends the head of one one-way push frame to dst. Pushes
// carry no frame ID: nothing ever answers them, so there is nothing to
// match.
func appendPush(dst []byte, method string, body []byte, maxFrame int) ([]byte, error) {
	if len(method) > 0xFFFF {
		return dst, fmt.Errorf("rpc: method name %d bytes long", len(method))
	}
	frameLen := frameCommonLen + pushFixedLen + len(method) + len(body)
	if maxFrame > 0 && frameLen > maxFrame {
		return dst, fmt.Errorf("rpc: push frame %d bytes exceeds limit %d", frameLen, maxFrame)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(frameLen))
	dst = append(dst, framePush)
	dst = binary.BigEndian.AppendUint64(dst, 0)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(method)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(body)))
	return append(dst, method...), nil
}

// appendResponse is appendRequest's response-side counterpart.
func appendResponse(dst []byte, id uint64, resp *Response, maxFrame int) ([]byte, error) {
	if len(resp.Err) > 0xFFFF {
		return dst, fmt.Errorf("rpc: error message %d bytes long", len(resp.Err))
	}
	frameLen := frameCommonLen + responseFixedLen + len(resp.Err) + len(resp.Body)
	if maxFrame > 0 && frameLen > maxFrame {
		return dst, fmt.Errorf("rpc: response frame %d bytes exceeds limit %d", frameLen, maxFrame)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(frameLen))
	dst = append(dst, frameResponse)
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = binary.BigEndian.AppendUint64(dst, resp.Seq)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(resp.Err)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(resp.Body)))
	return append(dst, resp.Err...), nil
}
