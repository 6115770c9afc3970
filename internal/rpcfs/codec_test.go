package rpcfs_test

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/fit"
	"repro/internal/naming"
	"repro/internal/rpcfs"
)

// payloads returns a fresh pointer to a zero value of every payload type,
// the decoder's destinations.
func payloads() []any {
	return []any{
		new(rpcfs.CreateArgs), new(rpcfs.IDArgs), new(rpcfs.ReadAtArgs), new(rpcfs.WriteAtArgs),
		new(rpcfs.TruncateArgs), new(rpcfs.PathArgs), new(rpcfs.RegisterArgs), new(rpcfs.QueryArgs),
		new(rpcfs.UnregisterSysArgs), new(rpcfs.ResolveReply), new(rpcfs.ListReply), new(rpcfs.IntReply),
		new(rpcfs.AttrReply), new(rpcfs.BytesReply), new(rpcfs.Empty),
	}
}

var (
	pinAttr = fit.Attributes{
		Size: 4096, Created: time.Unix(0, 1_700_000_000_123_456_789), RefCount: 1,
		Service: fit.ServiceType(2), Locking: fit.LockLevel(3), ExtraSpace: 7,
	}
	pinEntry = naming.Entry{
		Name: naming.Name{"type": "FILE", "path": "/a/b"}, Type: naming.FileObject,
		SystemName: 42, Service: "rhodosd",
	}
)

// TestPayloadEncodingPinned pins one value of every payload type to the
// bytes the encoder wrote for it before the decoders moved onto rpc.Reader:
// the wire did not change, and a change to it shows here first.
func TestPayloadEncodingPinned(t *testing.T) {
	const entryHex = "000000020000000470617468000000042f612f6200000004747970650000000446494c4501000000000000002a0000000772686f646f7364"
	for _, c := range []struct {
		v   any
		hex string
	}{
		{rpcfs.CreateArgs{Attr: pinAttr, Path: "/a/b"}, "000000000000100017979cfe3d85cd15800000000000000000000001020300000007000000042f612f62"},
		{rpcfs.IDArgs{ID: 0x0102030405060708}, "0102030405060708"},
		{rpcfs.ReadAtArgs{ID: 9, Off: -1, N: 4096}, "0000000000000009ffffffffffffffff0000000000001000"},
		{rpcfs.WriteAtArgs{ID: 9, Off: 8192, Data: []byte("data")}, "000000000000000900000000000020000000000464617461"},
		{rpcfs.TruncateArgs{ID: 9, Size: 100}, "00000000000000090000000000000064"},
		{rpcfs.PathArgs{Path: "/a"}, "000000022f61"},
		{rpcfs.RegisterArgs{Entry: pinEntry}, entryHex},
		{rpcfs.QueryArgs{Query: naming.Name{"type": "FILE", "owner": "x"}}, "00000002000000056f776e6572000000017800000004747970650000000446494c45"},
		{rpcfs.UnregisterSysArgs{Type: 1, Sys: 42}, "01000000000000002a"},
		{rpcfs.ResolveReply{Entry: pinEntry}, entryHex},
		{rpcfs.ListReply{Names: []string{"/a/b", "/a/c"}}, "00000002000000042f612f62000000042f612f63"},
		{rpcfs.IntReply{V: -2}, "fffffffffffffffe"},
		{rpcfs.AttrReply{Attr: pinAttr}, "000000000000100017979cfe3d85cd15800000000000000000000001020300000007"},
		{rpcfs.BytesReply{Data: []byte{0xde, 0xad}}, "00000002dead"},
		{rpcfs.Empty{}, ""},
	} {
		got, err := rpcfs.AppendPayload(nil, c.v)
		if err != nil {
			t.Fatal(err)
		}
		if hex.EncodeToString(got) != c.hex {
			t.Fatalf("%T encodes to %x, pinned %s", c.v, got, c.hex)
		}
		dst := reflect.New(reflect.TypeOf(c.v))
		if err := rpcfs.UnmarshalPayload(got, dst.Interface()); err != nil || !reflect.DeepEqual(dst.Elem().Interface(), c.v) {
			t.Fatalf("%T: pinned bytes decode to %+v, %v", c.v, dst.Elem().Interface(), err)
		}
	}
}

// TestPayloadRefusedShapes: bodies no encoder writes — a payload with a byte
// after it, a name whose keys are out of order or repeated — are refused,
// where once they decoded to a value that re-encodes to other bytes.
func TestPayloadRefusedShapes(t *testing.T) {
	id, _ := rpcfs.AppendPayload(nil, rpcfs.IDArgs{ID: 7})
	list, _ := rpcfs.AppendPayload(nil, rpcfs.ListReply{Names: []string{"x"}})
	// name builds a QueryArgs body whose pairs are in the order given.
	name := func(kv ...string) []byte {
		b := []byte{0, 0, 0, byte(len(kv) / 2)}
		for _, s := range kv {
			b = append(b, 0, 0, 0, byte(len(s)))
			b = append(b, s...)
		}
		return b
	}
	for _, c := range []struct {
		what string
		into any
		body []byte
	}{
		{"an IDArgs with a trailing byte", new(rpcfs.IDArgs), append(id, 0)},
		{"a ListReply with a trailing byte", new(rpcfs.ListReply), append(list, 0)},
		{"an Empty with a trailing byte", new(rpcfs.Empty), []byte{0}},
		{"a name with its keys out of order", new(rpcfs.QueryArgs), name("type", "FILE", "path", "/a")},
		{"a name with a repeated key", new(rpcfs.QueryArgs), name("path", "/a", "path", "/b")},
	} {
		if err := rpcfs.UnmarshalPayload(c.body, c.into); err == nil {
			t.Errorf("%s decoded to %+v", c.what, c.into)
		}
	}
	// The same name with its keys in order is what the encoder writes.
	if err := rpcfs.UnmarshalPayload(name("path", "/a", "type", "FILE"), new(rpcfs.QueryArgs)); err != nil {
		t.Fatalf("a name in key order refused: %v", err)
	}
}

// FuzzPayloadRoundTrip decodes arbitrary bytes as every payload type. None
// may panic, and whatever decodes must re-encode to exactly the input: a
// body means one value, wherever it is parsed.
func FuzzPayloadRoundTrip(f *testing.F) {
	for i, v := range []any{
		rpcfs.CreateArgs{Attr: pinAttr, Path: "/a/b"}, rpcfs.IDArgs{ID: 1},
		rpcfs.ReadAtArgs{ID: 9, Off: 3, N: 8}, rpcfs.WriteAtArgs{ID: 9, Data: []byte("fuzz")},
		rpcfs.TruncateArgs{ID: 9, Size: 10}, rpcfs.PathArgs{Path: "/fuzz"},
		rpcfs.RegisterArgs{Entry: pinEntry}, rpcfs.QueryArgs{Query: pinEntry.Name},
		rpcfs.UnregisterSysArgs{Type: 1, Sys: 2}, rpcfs.ResolveReply{Entry: pinEntry},
		rpcfs.ListReply{Names: []string{"a", "b"}}, rpcfs.IntReply{V: -1},
		rpcfs.AttrReply{Attr: pinAttr}, rpcfs.BytesReply{Data: []byte("x")}, rpcfs.Empty{},
	} {
		body, err := rpcfs.AppendPayload(nil, v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), body)
	}
	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		all := payloads()
		into := all[int(kind)%len(all)]
		if err := rpcfs.UnmarshalPayload(body, into); err != nil {
			return
		}
		v := reflect.ValueOf(into).Elem().Interface()
		again, err := rpcfs.AppendPayload(nil, v)
		if err != nil || !bytes.Equal(again, body) {
			t.Fatalf("%s: %x decodes to %+v, which encodes to %x (%v)", fmt.Sprintf("%T", v), body, v, again, err)
		}
	})
}
