package cluster

import (
	"bytes"
	"testing"
)

// FuzzDecodeWire feeds arbitrary bytes to every decoder of the cluster's
// control plane — the shard map a router installs, and the lock service's
// acquire, transaction and reply payloads. None may panic, and whatever
// decodes must re-encode to exactly the input: a body means one value.
func FuzzDecodeWire(f *testing.F) {
	f.Add(appendMap(nil, Map{Version: 3, Endpoints: []string{"a:1", "b:2"}, Backups: []string{"", "c:3"}}))
	f.Add(appendLockAcquire(nil, LockAcquireArgs{Client: 1, Txn: 2, PID: -3, Level: 1, Mode: 2, File: 4, Off: 5, Len: 6}))
	f.Add(appendLockTxn(nil, LockTxnArgs{Client: 1, Txn: 2}))
	f.Add(appendLockReply(nil, LockReply{Granted: true}))
	f.Fuzz(func(t *testing.T, body []byte) {
		roundTrip(t, "map", body, decodeMap, appendMap)
		roundTrip(t, "lock acquire", body, decodeLockAcquire, appendLockAcquire)
		roundTrip(t, "lock txn", body, decodeLockTxn, appendLockTxn)
		roundTrip(t, "lock reply", body, decodeLockReply, appendLockReply)
	})
}

func roundTrip[T any](t *testing.T, what string, body []byte, decode func([]byte) (T, error), encode func([]byte, T) []byte) {
	v, err := decode(body)
	if err != nil {
		return
	}
	if again := encode(nil, v); !bytes.Equal(again, body) {
		t.Fatalf("%s: %x decodes to %+v, which encodes to %x", what, body, v, again)
	}
}

// TestWireRefusedShapes: bodies no encoder writes — a map with a byte after
// it, a lock reply byte that is neither 0 nor 1 — are refused, where once
// they decoded to a value that re-encodes to other bytes.
func TestWireRefusedShapes(t *testing.T) {
	m := appendMap(nil, Map{Version: 3, Endpoints: []string{"a:1"}})
	for _, c := range []struct {
		what   string
		decode func() (any, error)
	}{
		{"a map with a trailing byte", func() (any, error) { return decodeMap(append(m, 0)) }},
		{"lock reply byte 2", func() (any, error) { return decodeLockReply([]byte{2}) }},
	} {
		if v, err := c.decode(); err == nil {
			t.Errorf("%s decoded to %+v", c.what, v)
		}
	}
}
