package rpc

import (
	"bufio"
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
	var seed bytes.Buffer
	bw := bufio.NewWriter(&seed)
	add := func(write func() error) []byte {
		seed.Reset()
		if err := write(); err != nil {
			f.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			f.Fatal(err)
		}
		frame := append([]byte(nil), seed.Bytes()...)
		f.Add(frame)
		return frame
	}
	// The codec round-trip tests' frames, one per kind...
	req := Request{ClientID: 7, Seq: 42, Method: "fs.read", Body: []byte("hello")}
	good := add(func() error { return writeRequest(bw, 1, &req, maxFrame) })
	traced := Request{ClientID: 7, Seq: 43, Method: "fs.readAt", Body: []byte{1, 2, 3}, TraceID: 0xABCD, SpanID: 9}
	add(func() error { return writeRequest(bw, 2, &traced, maxFrame) })
	resp := Response{Seq: 11, Body: bytes.Repeat([]byte{1}, 4096), Err: "both"}
	add(func() error { return writeResponse(bw, 100, &resp, maxFrame) })
	add(func() error { return writePush(bw, "cc.recall", []byte{1, 2, 3, 4, 5}, maxFrame) })
	// ...two frames back to back, and TestWireRejectsCorruptFrames' mutations.
	add(func() error {
		if err := writeRequest(bw, 3, &req, maxFrame); err != nil {
			return err
		}
		return writeResponse(bw, 3, &resp, maxFrame)
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
		total := 0
		for {
			frame, consumed, err := fr.read()
			total += consumed
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
		if total > len(stream) {
			t.Fatalf("consumed %d of %d bytes", total, len(stream))
		}
		gets1, puts1 := BufferBalance()
		if gets1-gets0 != puts1-puts0 {
			t.Fatalf("buffer ledger off by %d after decode", (gets1-gets0)-(puts1-puts0))
		}
	})
}
