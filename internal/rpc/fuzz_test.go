package rpc

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzFrameReader feeds arbitrary byte streams to the frame decoder — the
// first parser every byte off the network meets. It must never panic, never
// hand out a frame past the limit, and leave the pooled-buffer ledger level
// on every path, error paths included.
func FuzzFrameReader(f *testing.F) {
	const maxFrame = 1 << 16
	add := func(send func(w *frameWriter) error) []byte {
		frame := frameBytes(f, send)
		f.Add(frame)
		return frame
	}
	// The codec round-trip tests' frames, one per kind...
	req := Request{ClientID: 7, Seq: 42, Method: "fs.read", Body: []byte("hello")}
	good := add(func(w *frameWriter) error { return w.writeRequest(1, &req) })
	traced := Request{ClientID: 7, Seq: 43, Method: "fs.readAt", Body: []byte{1, 2, 3}, TraceID: 0xABCD, SpanID: 9}
	add(func(w *frameWriter) error { return w.writeRequest(2, &traced) })
	resp := Response{Seq: 11, Body: bytes.Repeat([]byte{1}, 4096), Err: "both"}
	add(func(w *frameWriter) error { return w.writeResponse(100, &resp) })
	add(func(w *frameWriter) error { return w.writePush("cc.recall", []byte{1, 2, 3, 4, 5}) })
	// ...two frames back to back, and TestWireRejectsCorruptFrames' mutations.
	add(func(w *frameWriter) error {
		if err := w.writeRequest(3, &req); err != nil {
			return err
		}
		return w.writeResponse(3, &resp)
	})
	huge := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(huge, maxFrame+1)
	f.Add(huge)
	skewed := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(skewed[31:], 9999) // blen past the frame length
	f.Add(skewed)
	alien := append([]byte(nil), good...)
	alien[4] = 77 // unknown kind
	f.Add(alien)
	f.Add(good[:len(good)-2]) // truncated body

	f.Fuzz(func(t *testing.T, stream []byte) {
		gets0, puts0 := BufferBalance()
		fr := newFrameReader(bytes.NewReader(stream), maxFrame)
		for {
			frame, err := fr.read()
			if err != nil {
				if frame.body != nil {
					t.Fatalf("error %v returned with a body attached", err)
				}
				break
			}
			if size := len(frame.method) + len(frame.errMsg) + len(frame.body); size > maxFrame {
				t.Fatalf("frame of %d payload bytes exceeds limit %d", size, maxFrame)
			}
			Recycle(frame.body)
		}
		gets1, puts1 := BufferBalance()
		if gets1-gets0 != puts1-puts0 {
			t.Fatalf("buffer ledger off by %d after decode", (gets1-gets0)-(puts1-puts0))
		}
	})
}
