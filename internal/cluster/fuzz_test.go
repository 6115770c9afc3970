package cluster

import (
	"reflect"
	"testing"
)

// FuzzDecodeWire feeds arbitrary bytes to every decoder of the cluster's
// control plane — the shard map a router installs, and the lock service's
// acquire, transaction and reply payloads. None may panic, and whatever
// decodes must re-encode to a body that decodes to the same value.
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
	again, err := decode(encode(nil, v))
	if err != nil || !reflect.DeepEqual(again, v) {
		t.Fatalf("%s %+v re-encoded decodes to %+v, %v", what, v, again, err)
	}
}
