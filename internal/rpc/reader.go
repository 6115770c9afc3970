package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Reader reads a body a peer sent — the argument or reply payload a service
// layer parses out of a frame — under the one rule every such decoder keeps:
// a body decodes only if it is byte for byte what its package's encoder
// writes for the decoded value. So the layouts share one vocabulary:
// big-endian fixed-width integers, strings and blobs as a u32 length and
// their bytes, a list as a u32 count and its elements. The first read that
// runs past the body, or a Fail, poisons the reader: every later read
// returns a zero value, and Done reports the first error. Done also refuses
// a body with bytes left over.
//
// Byte slices a Reader returns alias the body, capacity clipped, so the
// ownership rule of the body (see Recycle) covers them too.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over body.
func NewReader(body []byte) Reader { return Reader{b: body} }

// errShortBody is the sticky error of a read past the end of a body.
var errShortBody = errors.New("body cut short")

// Bytes returns the next n bytes.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.err = errShortBody
		return nil
	}
	p := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return p
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if p := r.Bytes(1); p != nil {
		return p[0]
	}
	return 0
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	if p := r.Bytes(2); p != nil {
		return binary.BigEndian.Uint16(p)
	}
	return 0
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if p := r.Bytes(4); p != nil {
		return binary.BigEndian.Uint32(p)
	}
	return 0
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if p := r.Bytes(8); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

// Blob reads a u32 length and that many bytes; an empty blob is nil.
func (r *Reader) Blob() []byte {
	if n := r.U32(); n > 0 {
		return r.Bytes(int(n))
	}
	return nil
}

// Str reads a u32 length and that many bytes as a string.
func (r *Reader) Str() string { return string(r.Blob()) }

// Count reads a list's u32 element count. The count is the peer's word, so
// it is bounded before anything is sized by it: each element takes at least
// min bytes, and a count the rest of the body cannot hold fails the reader
// and reads as 0.
func (r *Reader) Count(min int) int {
	n := int(r.U32())
	if r.err == nil && n > (len(r.b)-r.off)/min {
		r.err = fmt.Errorf("count %d exceeds the %d bytes left", n, len(r.b)-r.off)
		return 0
	}
	return n
}

// Strings reads a list of strings: a count, then each string.
func (r *Reader) Strings() []string {
	n := r.Count(4)
	if n == 0 {
		return nil
	}
	list := make([]string, n)
	for i := range list {
		list[i] = r.Str()
	}
	return list
}

// Fail poisons the reader with err, unless it already failed: a decoder
// calls it for a value its encoder never writes.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Done reports the reader's first error, or that the body holds bytes past
// the last read, naming the body what.
func (r *Reader) Done(what string) error {
	if r.err == nil && r.off != len(r.b) {
		r.err = fmt.Errorf("%d trailing bytes", len(r.b)-r.off)
	}
	if r.err != nil {
		return fmt.Errorf("%s: %w", what, r.err)
	}
	return nil
}
