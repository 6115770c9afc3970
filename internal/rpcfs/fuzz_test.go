package rpcfs_test

import (
	"context"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fit"
	"repro/internal/naming"
	"repro/internal/rpc"
	"repro/internal/rpcfs"
)

// fuzzMethods is every method the server dispatches: the method table's.
var fuzzMethods = rpcfs.Methods()

// newHandler serves a small facility holding one file with the returned
// contents, and returns that file's ID.
func newHandler(tb testing.TB) (h rpc.Link, id uint64, contents string) {
	tb.Helper()
	c, err := core.New(core.Config{Geometry: device.Geometry{FragmentsPerTrack: 32, Tracks: 128}}) // 8 MB
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = c.Close() })
	fid, err := c.Files.Create(fit.Attributes{})
	if err != nil {
		tb.Fatal(err)
	}
	contents = "bytes off the network"
	if _, err := c.Files.WriteAt(fid, 0, []byte(contents)); err != nil {
		tb.Fatal(err)
	}
	return (&rpcfs.Server{Files: c.Files, Naming: c.Naming}).HandlerCtx(), uint64(fid), contents
}

// readAtBody hand-encodes an fs.readAt argument: id, off, n as the peer
// would put them on the wire.
func readAtBody(id uint64, off int64, n uint64) []byte {
	b := binary.BigEndian.AppendUint64(nil, id)
	b = binary.BigEndian.AppendUint64(b, uint64(off))
	return binary.BigEndian.AppendUint64(b, n)
}

// TestReadAtLengthOverflow: a length chosen so off+n wraps int64 used to
// skip the file service's clamp and panic the server in make([]byte, n); it
// must read the file's tail like any other over-long read.
func TestReadAtLengthOverflow(t *testing.T) {
	h, id, contents := newHandler(t)
	out, err := h(context.Background(), rpcfs.MReadAt, readAtBody(id, 1, math.MaxInt64))
	if err != nil {
		t.Fatal(err)
	}
	var r rpcfs.BytesReply
	if err := rpcfs.UnmarshalPayload(out, &r); err != nil {
		t.Fatal(err)
	}
	if string(r.Data) != contents[1:] {
		t.Fatalf("read = %q, want the tail %q", r.Data, contents[1:])
	}
}

// TestReadAtReplyFraming: the fs.readAt reply is built by the file service
// reading behind a length header the handler fills in afterwards, so at every
// edge of the clamp — inside the file, up to its end, at it, past it, nothing
// asked for, everything asked for — the header must count exactly the bytes
// that follow it, and those must be the file's.
func TestReadAtReplyFraming(t *testing.T) {
	h, id, contents := newHandler(t)
	size := int64(len(contents))
	for _, c := range []struct {
		off  int64
		n    uint64
		want string
	}{
		{0, uint64(size), contents},
		{3, 8, contents[3:11]},
		{size - 1, 1, contents[size-1:]},
		{size - 1, 2, contents[size-1:]},
		{size, 1, ""},
		{size + 100, 8, ""},
		{0, 0, ""},
		{size, 0, ""},
		{0, math.MaxInt64, contents},
		{size, math.MaxInt64, ""},
	} {
		out, err := h(context.Background(), rpcfs.MReadAt, readAtBody(id, c.off, c.n))
		if err != nil {
			t.Fatalf("readAt(%d, %d): %v", c.off, c.n, err)
		}
		if len(out) < rpcfs.BlobHeaderLen || int(binary.BigEndian.Uint32(out)) != len(out)-rpcfs.BlobHeaderLen {
			t.Fatalf("readAt(%d, %d): reply % x: header does not count the %d bytes after it", c.off, c.n, out, len(out)-rpcfs.BlobHeaderLen)
		}
		if got := string(out[rpcfs.BlobHeaderLen:]); got != c.want {
			t.Fatalf("readAt(%d, %d) = %q, want %q", c.off, c.n, got, c.want)
		}
		// The bytes are what the codec's own encoder produces for the data.
		if ref, _ := rpcfs.AppendPayload(nil, rpcfs.BytesReply{Data: []byte(c.want)}); string(ref) != string(out) {
			t.Fatalf("readAt(%d, %d): reply % x, encoder gives % x", c.off, c.n, out, ref)
		}
	}
}

// FuzzServerHandler drives every rpcfs entry point that parses a request
// body — the classifier's two decodes, which the cluster and lease layers
// call, and the handler itself over a live facility — with arbitrary bytes:
// each must answer with a reply or an error, never a panic. The facility is
// shared across inputs, so later inputs see files earlier ones created or
// deleted.
func FuzzServerHandler(f *testing.F) {
	h, id, _ := newHandler(f)
	entry := naming.Entry{
		Name: naming.Name{"type": "FILE", "path": "/fuzz/entry"}, Type: naming.FileObject,
		SystemName: id, Service: "rhodosd",
	}
	for _, args := range []struct {
		method string
		v      any
	}{
		{rpcfs.MCreate, rpcfs.CreateArgs{Path: "/fuzz/created"}},
		{rpcfs.MCreate, rpcfs.CreateArgs{Attr: fit.Attributes{RefCount: 1}, Path: "/fuzz/opened"}},
		{rpcfs.MCreate, rpcfs.CreateArgs{Attr: fit.Attributes{RefCount: 2}, Path: "/fuzz/refused"}},
		{rpcfs.MOpen, rpcfs.IDArgs{ID: id}},
		{rpcfs.MClose, rpcfs.IDArgs{ID: id}},
		{rpcfs.MReadAt, rpcfs.ReadAtArgs{ID: id, Off: 3, N: 8}},
		{rpcfs.MWriteAt, rpcfs.WriteAtArgs{ID: id, Off: 5, Data: []byte("fuzz")}},
		{rpcfs.MTruncate, rpcfs.TruncateArgs{ID: id, Size: 10}},
		{rpcfs.MAttr, rpcfs.IDArgs{ID: id}},
		{rpcfs.MSize, rpcfs.IDArgs{ID: id}},
		{rpcfs.MRegister, rpcfs.RegisterArgs{Entry: entry}},
		{rpcfs.MResolve, rpcfs.PathArgs{Path: "/fuzz/entry"}},
		{rpcfs.MResolveQuery, rpcfs.QueryArgs{Query: entry.Name}},
		{rpcfs.MList, rpcfs.PathArgs{Path: "/fuzz"}},
		{rpcfs.MUnregisterSys, rpcfs.UnregisterSysArgs{Type: uint8(naming.FileObject), Sys: id}},
		{rpcfs.MDelete, rpcfs.IDArgs{ID: id + 1}},
	} {
		body, err := rpcfs.AppendPayload(nil, args.v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(methodIndex(f, args.method)), body)
	}
	f.Add(uint8(methodIndex(f, rpcfs.MReadAt)), readAtBody(id, 1, math.MaxInt64))

	f.Fuzz(func(t *testing.T, m uint8, body []byte) {
		method := fuzzMethods[int(m)%len(fuzzMethods)]
		c := rpcfs.Classify(method, body)
		_, _, _ = c.Path()
		_, _, _ = c.File()
		_, _ = h(context.Background(), method, body)
	})
}

func methodIndex(tb testing.TB, method string) int {
	for i, m := range fuzzMethods {
		if m == method {
			return i
		}
	}
	tb.Fatalf("method %q not in fuzzMethods", method)
	return 0
}
