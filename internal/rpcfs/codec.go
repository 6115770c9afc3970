package rpcfs

// The binary payload codec: hand-rolled fixed-layout encoding for every
// rpcfs request and reply struct. It appends into a caller-supplied buffer
// and decodes with zero allocations for fixed-size payloads.
//
// Buffer ownership, the one rule: a frame belongs to whoever called for it,
// for as long as the call lasts, and nothing decoded from it outlives that.
// Decoding never copies a byte slice — WriteAtArgs.Data and BytesReply.Data
// alias the frame they were decoded from. On the server the request frame is
// the handler's until it returns, so the file service is handed the alias and
// copies the bytes once, into its block cache. On the client Client.call owns
// both frames: it encodes the request into a pooled buffer and recycles it
// when the call returns, and it copies a BytesReply's bytes out at their exact
// size — the one copy of that hop — and hands the reply frame back to the
// transport's free lists on every path. What a Client method returns is
// therefore always the caller's own. Reply bodies a handler produces are plain
// allocations, never pooled: the endpoint's duplicate-request cache keeps
// them.
//
// Layout conventions: integers are big-endian fixed width, strings and byte
// slices are a u32 length followed by the bytes, times are UnixNano with
// math.MinInt64 reserved for the zero time, and naming.Entry attribute maps
// are encoded in sorted key order so encodings are deterministic.

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/fit"
	"repro/internal/naming"
)

// payloadSize returns the exact encoded size of v, so marshaling can draw a
// right-sized buffer from the transport pools.
func payloadSize(v any) int {
	switch x := v.(type) {
	case CreateArgs:
		return attrSize + strSize(x.Path)
	case IDArgs:
		return 8
	case ReadAtArgs:
		return 8 + 8 + 8
	case WriteAtArgs:
		return 8 + 8 + 4 + len(x.Data)
	case TruncateArgs:
		return 8 + 8
	case PathArgs:
		return strSize(x.Path)
	case RegisterArgs:
		return entrySize(x.Entry)
	case QueryArgs:
		return nameSize(x.Query)
	case UnregisterSysArgs:
		return 1 + 8
	case ResolveReply:
		return entrySize(x.Entry)
	case ListReply:
		n := 4
		for _, s := range x.Names {
			n += strSize(s)
		}
		return n
	case IntReply:
		return 8
	case AttrReply:
		return attrSize
	case BytesReply:
		return 4 + len(x.Data)
	case Empty:
		return 0
	default:
		return 0
	}
}

// appendPayload appends v's encoding to dst.
func appendPayload(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case CreateArgs:
		dst = appendAttr(dst, x.Attr)
		return appendStr(dst, x.Path), nil
	case IDArgs:
		return binary.BigEndian.AppendUint64(dst, x.ID), nil
	case ReadAtArgs:
		dst = binary.BigEndian.AppendUint64(dst, x.ID)
		dst = binary.BigEndian.AppendUint64(dst, uint64(x.Off))
		return binary.BigEndian.AppendUint64(dst, uint64(x.N)), nil
	case WriteAtArgs:
		dst = binary.BigEndian.AppendUint64(dst, x.ID)
		dst = binary.BigEndian.AppendUint64(dst, uint64(x.Off))
		return appendBlob(dst, x.Data), nil
	case TruncateArgs:
		dst = binary.BigEndian.AppendUint64(dst, x.ID)
		return binary.BigEndian.AppendUint64(dst, uint64(x.Size)), nil
	case PathArgs:
		return appendStr(dst, x.Path), nil
	case RegisterArgs:
		return appendEntry(dst, x.Entry), nil
	case QueryArgs:
		return appendName(dst, x.Query), nil
	case UnregisterSysArgs:
		dst = append(dst, x.Type)
		return binary.BigEndian.AppendUint64(dst, x.Sys), nil
	case ResolveReply:
		return appendEntry(dst, x.Entry), nil
	case ListReply:
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(x.Names)))
		for _, s := range x.Names {
			dst = appendStr(dst, s)
		}
		return dst, nil
	case IntReply:
		return binary.BigEndian.AppendUint64(dst, uint64(x.V)), nil
	case AttrReply:
		return appendAttr(dst, x.Attr), nil
	case BytesReply:
		return appendBlob(dst, x.Data), nil
	case Empty:
		return dst, nil
	default:
		return nil, fmt.Errorf("rpcfs: no binary encoding for %T", v)
	}
}

// unmarshalPayload decodes data into *v. Byte slices in *v alias data (see the
// ownership rule above).
func unmarshalPayload(data []byte, v any) error {
	r := rbuf{b: data}
	switch x := v.(type) {
	case *CreateArgs:
		x.Attr = r.attr()
		x.Path = r.str()
	case *IDArgs:
		x.ID = r.u64()
	case *ReadAtArgs:
		x.ID = r.u64()
		x.Off = int64(r.u64())
		x.N = int(r.u64())
	case *WriteAtArgs:
		x.ID = r.u64()
		x.Off = int64(r.u64())
		x.Data = r.blob()
	case *TruncateArgs:
		x.ID = r.u64()
		x.Size = int64(r.u64())
	case *PathArgs:
		x.Path = r.str()
	case *RegisterArgs:
		x.Entry = r.entry()
	case *QueryArgs:
		x.Query = r.name()
	case *UnregisterSysArgs:
		x.Type = r.u8()
		x.Sys = r.u64()
	case *ResolveReply:
		x.Entry = r.entry()
	case *ListReply:
		n := int(r.u32())
		if n > 0 && r.err == nil {
			if n > len(r.b)/4 {
				return fmt.Errorf("rpcfs: list length %d exceeds payload", n)
			}
			x.Names = make([]string, n)
			for i := range x.Names {
				x.Names[i] = r.str()
			}
		}
	case *IntReply:
		x.V = int64(r.u64())
	case *AttrReply:
		x.Attr = r.attr()
	case *BytesReply:
		x.Data = r.blob()
	case *Empty:
	default:
		return fmt.Errorf("rpcfs: no binary decoding for %T", v)
	}
	return r.err
}

func strSize(s string) int { return 4 + len(s) }

// attrSize is the fixed encoding of fit.Attributes: Size, Created, LastRead,
// RefCount, Service, Locking, ExtraSpace.
const attrSize = 8 + 8 + 8 + 4 + 1 + 1 + 4

func nameSize(name naming.Name) int {
	n := 4
	for k, v := range name {
		n += strSize(k) + strSize(v)
	}
	return n
}

func entrySize(e naming.Entry) int {
	return nameSize(e.Name) + 1 + 8 + strSize(e.Service)
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// blobHeaderLen is the u32 length that precedes a byte slice.
const blobHeaderLen = 4

func appendBlob(dst, p []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(p)))
	return append(dst, p...)
}

// appendTime encodes a time as UnixNano; the zero time is reserved as
// MinInt64 so it round-trips to a zero time exactly.
func appendTime(dst []byte, t time.Time) []byte {
	v := int64(math.MinInt64)
	if !t.IsZero() {
		v = t.UnixNano()
	}
	return binary.BigEndian.AppendUint64(dst, uint64(v))
}

func appendAttr(dst []byte, a fit.Attributes) []byte {
	dst = binary.BigEndian.AppendUint64(dst, a.Size)
	dst = appendTime(dst, a.Created)
	dst = appendTime(dst, a.LastRead)
	dst = binary.BigEndian.AppendUint32(dst, a.RefCount)
	dst = append(dst, byte(a.Service), byte(a.Locking))
	return binary.BigEndian.AppendUint32(dst, a.ExtraSpace)
}

func appendName(dst []byte, name naming.Name) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(name)))
	keys := make([]string, 0, len(name))
	for k := range name {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		dst = appendStr(dst, k)
		dst = appendStr(dst, name[k])
	}
	return dst
}

func appendEntry(dst []byte, e naming.Entry) []byte {
	dst = appendName(dst, e.Name)
	dst = append(dst, byte(e.Type))
	dst = binary.BigEndian.AppendUint64(dst, e.SystemName)
	return appendStr(dst, e.Service)
}

// rbuf is a bounds-checked sequential reader; the first short read poisons
// it and every later read returns zero values.
type rbuf struct {
	b   []byte
	off int
	err error
}

func (r *rbuf) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) || n < 0 {
		r.err = fmt.Errorf("rpcfs: truncated payload (%d of %d bytes)", len(r.b)-r.off, n)
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

func (r *rbuf) u8() byte {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *rbuf) u32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint32(p)
}

func (r *rbuf) u64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint64(p)
}

func (r *rbuf) str() string {
	n := int(r.u32())
	p := r.take(n)
	if p == nil {
		return ""
	}
	return string(p)
}

// blob returns the raw bytes, aliasing the underlying buffer.
func (r *rbuf) blob() []byte {
	n := int(r.u32())
	if n == 0 {
		return nil
	}
	return r.take(n)
}

func (r *rbuf) time() time.Time {
	v := int64(r.u64())
	if v == math.MinInt64 || r.err != nil {
		return time.Time{}
	}
	return time.Unix(0, v)
}

func (r *rbuf) attr() fit.Attributes {
	var a fit.Attributes
	a.Size = r.u64()
	a.Created = r.time()
	a.LastRead = r.time()
	a.RefCount = r.u32()
	a.Service = fit.ServiceType(r.u8())
	a.Locking = fit.LockLevel(r.u8())
	a.ExtraSpace = r.u32()
	return a
}

func (r *rbuf) name() naming.Name {
	n := int(r.u32())
	if n == 0 || r.err != nil {
		return nil
	}
	if n > len(r.b)/2 {
		r.err = fmt.Errorf("rpcfs: entry attribute count %d exceeds payload", n)
		return nil
	}
	name := make(naming.Name, n)
	for i := 0; i < n; i++ {
		k := r.str()
		name[k] = r.str()
	}
	return name
}

func (r *rbuf) entry() naming.Entry {
	var e naming.Entry
	e.Name = r.name()
	e.Type = naming.ObjectType(r.u8())
	e.SystemName = r.u64()
	e.Service = r.str()
	return e
}
