package rpc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"testing"
	"unsafe"
)

// listen opens a loopback listener for transport tests.
func listen(t testing.TB) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// dial connects to srv and closes the connection when the test ends.
func dial(t testing.TB, srv *TCPServer, opts ...TCPOption) *TCPTransport {
	t.Helper()
	tr, err := DialTCP(srv.Addr().String(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	return tr
}

// bufConn is a net.Conn that keeps what is written to it.
type bufConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *bufConn) Write(p []byte) (int, error) { return c.buf.Write(p) }

// frameBytes renders the frames send writes, through the production path: a
// frameWriter, head and body.
func frameBytes(t testing.TB, send func(w *frameWriter) error) []byte {
	t.Helper()
	c := &bufConn{}
	w := newFrameWriter(c, 0, func(err error) { t.Fatal(err) })
	if err := send(w); err != nil {
		t.Fatal(err)
	}
	return c.buf.Bytes()
}

func encodeRequestFrame(t testing.TB, id uint64, req Request) []byte {
	t.Helper()
	return frameBytes(t, func(w *frameWriter) error { return w.writeRequest(id, &req) })
}

func encodeResponseFrame(t testing.TB, id uint64, resp Response) []byte {
	t.Helper()
	return frameBytes(t, func(w *frameWriter) error { return w.writeResponse(id, &resp) })
}

func TestWireRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{ClientID: 7, Seq: 42, Method: "fs.read", Body: []byte("hello")},
		{ClientID: 0, Seq: 0, Method: "", Body: nil},
		{ClientID: ^uint64(0), Seq: ^uint64(0), Method: strings.Repeat("m", 300), Body: bytes.Repeat([]byte{0xAB}, 100_000)},
	}
	for i, req := range cases {
		stream := encodeRequestFrame(t, uint64(i)+1, req)
		fr := newFrameReader(bytes.NewReader(stream), DefaultMaxFrame)
		frame, consumed, err := fr.read()
		if err != nil {
			t.Fatalf("case %d: read: %v", i, err)
		}
		if consumed != len(stream) {
			t.Fatalf("case %d: consumed %d of %d bytes", i, consumed, len(stream))
		}
		if frame.kind != frameRequest || frame.id != uint64(i)+1 {
			t.Fatalf("case %d: kind=%d id=%d", i, frame.kind, frame.id)
		}
		if frame.clientID != req.ClientID || frame.seq != req.Seq || frame.method != req.Method {
			t.Fatalf("case %d: header mismatch: %+v", i, frame)
		}
		if !bytes.Equal(frame.body, req.Body) {
			t.Fatalf("case %d: body mismatch (%d vs %d bytes)", i, len(frame.body), len(req.Body))
		}
		Recycle(frame.body)
	}
}

func TestWireResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{Seq: 9, Body: []byte("payload"), Err: ""},
		{Seq: 10, Body: nil, Err: "file service: no such file"},
		{Seq: 11, Body: bytes.Repeat([]byte{1}, 4096), Err: "both"},
	}
	for i, resp := range cases {
		stream := encodeResponseFrame(t, uint64(100+i), resp)
		fr := newFrameReader(bytes.NewReader(stream), DefaultMaxFrame)
		frame, _, err := fr.read()
		if err != nil {
			t.Fatalf("case %d: read: %v", i, err)
		}
		if frame.kind != frameResponse || frame.id != uint64(100+i) {
			t.Fatalf("case %d: kind=%d id=%d", i, frame.kind, frame.id)
		}
		if frame.seq != resp.Seq || frame.errMsg != resp.Err {
			t.Fatalf("case %d: header mismatch: %+v", i, frame)
		}
		if !bytes.Equal(frame.body, resp.Body) {
			t.Fatalf("case %d: body mismatch", i)
		}
		Recycle(frame.body)
	}
}

// TestWireMethodInterning: repeated requests for the same method decode to
// the identical string (the intern map), so steady-state decoding does not
// allocate method strings.
func TestWireMethodInterning(t *testing.T) {
	var stream []byte
	for i := 0; i < 3; i++ {
		stream = append(stream, encodeRequestFrame(t, uint64(i), Request{Method: "fs.pread"})...)
	}
	fr := newFrameReader(bytes.NewReader(stream), DefaultMaxFrame)
	var first string
	for i := 0; i < 3; i++ {
		frame, _, err := fr.read()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = frame.method
		} else if unsafe.StringData(frame.method) != unsafe.StringData(first) {
			t.Fatal("method string not interned across frames")
		}
	}
}

// TestWireMethodInternCap: a peer sending endless distinct method names
// cannot grow the intern map past its cap, and names past the cap still
// decode correctly.
func TestWireMethodInternCap(t *testing.T) {
	const n = 10_000
	stream := frameBytes(t, func(w *frameWriter) error {
		for i := 0; i < n; i++ {
			req := Request{Method: fmt.Sprintf("m.%d", i)}
			if err := w.writeRequest(uint64(i), &req); err != nil {
				return err
			}
		}
		return nil
	})
	fr := newFrameReader(bytes.NewReader(stream), DefaultMaxFrame)
	for i := 0; i < n; i++ {
		frame, _, err := fr.read()
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("m.%d", i); frame.method != want {
			t.Fatalf("frame %d decoded method %q, want %q", i, frame.method, want)
		}
	}
	if len(fr.methods) != maxInternedMethods {
		t.Fatalf("intern map holds %d methods, want the cap %d", len(fr.methods), maxInternedMethods)
	}
}

// TestWireRejectsCorruptFrames: corrupt length prefixes and inconsistent
// field lengths are rejected instead of desynchronizing or over-allocating.
func TestWireRejectsCorruptFrames(t *testing.T) {
	good := encodeRequestFrame(t, 1, Request{ClientID: 1, Seq: 2, Method: "m", Body: []byte("body")})

	// Oversized length prefix.
	huge := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(huge[0:], uint32(DefaultMaxFrame)+1)
	if _, _, err := newFrameReader(bytes.NewReader(huge), DefaultMaxFrame).read(); err == nil {
		t.Fatal("oversized frame accepted")
	}

	// Length prefix shorter than the common header.
	tiny := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(tiny[0:], 3)
	if _, _, err := newFrameReader(bytes.NewReader(tiny), DefaultMaxFrame).read(); err == nil {
		t.Fatal("undersized frame accepted")
	}

	// Body length inconsistent with the frame length.
	skewed := append([]byte(nil), good...)
	// blen lives at offset 4 (len) + 9 (common) + 8 + 8 + 2 = 31.
	binary.BigEndian.PutUint32(skewed[31:], 9999)
	if _, _, err := newFrameReader(bytes.NewReader(skewed), DefaultMaxFrame).read(); err == nil {
		t.Fatal("inconsistent frame accepted")
	}

	// Unknown frame kind.
	alien := append([]byte(nil), good...)
	alien[4] = 77
	if _, _, err := newFrameReader(bytes.NewReader(alien), DefaultMaxFrame).read(); err == nil {
		t.Fatal("unknown frame kind accepted")
	}
}

// TestWireWriterEnforcesMaxFrame: the encoders refuse frames past the limit
// so a misbehaving caller cannot poison the stream for the peer, and a
// refused frame leaves the buffer it was to be appended to as it was.
func TestWireWriterEnforcesMaxFrame(t *testing.T) {
	buf := []byte("queued")
	req := Request{Method: "m", Body: make([]byte, 1024)}
	if out, err := appendRequest(buf, 1, &req, 64); err == nil || string(out) != "queued" {
		t.Fatalf("oversized request: %q, %v", out, err)
	}
	resp := Response{Body: make([]byte, 1024)}
	if out, err := appendResponse(buf, 1, &resp, 64); err == nil || string(out) != "queued" {
		t.Fatalf("oversized response: %q, %v", out, err)
	}
	if out, err := appendPush(buf, "m", make([]byte, 1024), 64); err == nil || string(out) != "queued" {
		t.Fatalf("oversized push: %q, %v", out, err)
	}
}

// TestBufFreeListRecycling: getBuf/Recycle round power-of-two classes and
// ignore foreign slices.
func TestBufFreeListRecycling(t *testing.T) {
	b := getBuf(1000)
	if len(b) != 1000 || cap(b) != 1024 {
		t.Fatalf("getBuf(1000) len=%d cap=%d", len(b), cap(b))
	}
	Recycle(b)
	b2 := getBuf(700)
	if cap(b2) != 1024 {
		t.Fatalf("recycled 1024-cap buffer not reused: cap=%d", cap(b2))
	}

	// Tiny requests are rounded up to the minimum class.
	tiny := getBuf(1)
	if len(tiny) != 1 || cap(tiny) != 1<<bufMinClass {
		t.Fatalf("getBuf(1) len=%d cap=%d", len(tiny), cap(tiny))
	}

	// Oversized buffers are unpooled; Recycle must not retain them.
	big := getBuf((1 << bufMaxClass) + 1)
	if cap(big) == 1<<(bufMaxClass+1) {
		t.Fatalf("oversized buffer got pooled capacity %d", cap(big))
	}
	Recycle(big) // must be a no-op

	// Foreign slices (non-power-of-two capacity) are ignored.
	Recycle(make([]byte, 0, 1000))
	got := getBuf(1000)
	if cap(got) != 1024 {
		t.Fatalf("foreign slice entered the pool: cap=%d", cap(got))
	}
}
