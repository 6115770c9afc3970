package rpcfs_test

import (
	"bytes"
	"testing"

	"repro/internal/fit"
	"repro/internal/naming"
	"repro/internal/polltest"
)

// TestFreeListBalance is the buffer-leak regression gate for the client call
// path: every pooled wire buffer handed out for a request or reply must go
// back to the free lists on every outcome — success, service error, and
// decode — a ReadAt reply included: its bytes are copied out for the caller
// and the frame handed back (codec.go has the rule). The call() error paths
// used to leak exactly these buffers, and every read used to keep one.
func TestFreeListBalance(t *testing.T) {
	_, cl := newRemote(t)
	id, err := cl.CreatePath(fit.Attributes{}, "/leak/file")
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5A}, 4096)
	if _, err := cl.WriteAt(id, 0, data); err != nil {
		t.Fatal(err)
	}

	// The server worker recycles a request body slightly after the client
	// sees the response, so sample until the ledger stops moving.
	base := polltest.SettledBuffers(t)

	// A mix of successful and failing calls that must all balance exactly.
	for i := 0; i < 20; i++ {
		if _, err := cl.WriteAt(id, int64(i), data[:512]); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Size(id); err != nil {
			t.Fatal(err)
		}
		if err := cl.Open(999999); err == nil { // service error reply
			t.Fatal("open of a bogus id succeeded")
		}
		if _, err := cl.Resolve("/leak/missing"); err == nil {
			t.Fatal("resolve of a missing path succeeded")
		}
		// Duplicate registration errors server-side after decode.
		if err := cl.Register(naming.Entry{
			Name:       naming.Name{"type": "FILE", "path": "/leak/file"},
			Type:       naming.FileObject,
			SystemName: uint64(id),
			Service:    "rhodosd",
		}); err == nil {
			t.Fatal("duplicate register succeeded")
		}
	}
	polltest.BuffersBalance(t, base, "after mixed success/error calls")

	// Reads hand the caller its own copy and the frame back to the lists:
	// nothing stays out, and what was returned survives the frame's reuse by
	// the reads that follow.
	ramp := make([]byte, 2048)
	for i := range ramp {
		ramp[i] = byte(i * 7)
	}
	if _, err := cl.WriteAt(id, 0, ramp); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	for i := 0; i < 5; i++ {
		out, err := cl.ReadAt(id, int64(i), 1024)
		if err != nil || len(out) != 1024 {
			t.Fatalf("ReadAt = %d bytes, %v", len(out), err)
		}
		got = append(got, out)
	}
	polltest.BuffersBalance(t, base, "after reads")
	for i, out := range got {
		if !bytes.Equal(out, ramp[i:i+1024]) {
			t.Fatalf("read %d changed after later reads reused its frame", i)
		}
	}
}
