package cluster

// Cluster control-plane methods and their payloads: the same fixed-layout
// binary encoding as rpcfs (big-endian integers, u32-length-prefixed
// strings).

import (
	"encoding/binary"
	"errors"

	"repro/internal/rpc"
)

// Cluster method names.
const (
	// MMap serves the shard map (no arguments, Map reply).
	MMap = "cluster.map"
	// MLockAcquire tries to acquire one lock for a leased transaction
	// (LockAcquireArgs, LockReply). The try is non-blocking on the server —
	// a blocked acquire would pin a server worker — so clients poll.
	MLockAcquire = "cluster.lock.acquire"
	// MLockRenew renews a transaction's lease (LockTxnArgs, empty reply;
	// a lost lease is a service error).
	MLockRenew = "cluster.lock.renew"
	// MLockRelease releases all of a transaction's locks and its lease
	// (LockTxnArgs, empty reply).
	MLockRelease = "cluster.lock.release"
)

// LockAcquireArgs asks for one lock on behalf of transaction Txn, leased to
// client Client. Level/Mode are internal/lock enums; File/Off/Len name the
// data item per lock.ItemID.
type LockAcquireArgs struct {
	Client uint64
	Txn    uint64
	PID    int64
	Level  uint8
	Mode   uint8
	File   uint64
	Off    uint64
	Len    uint64
}

// LockTxnArgs names a leased transaction.
type LockTxnArgs struct {
	Client uint64
	Txn    uint64
}

// LockReply reports whether a non-blocking acquire was granted.
type LockReply struct {
	Granted bool
}

const lockAcquireLen = 8 + 8 + 8 + 1 + 1 + 8 + 8 + 8

func appendLockAcquire(dst []byte, a LockAcquireArgs) []byte {
	dst = binary.BigEndian.AppendUint64(dst, a.Client)
	dst = binary.BigEndian.AppendUint64(dst, a.Txn)
	dst = binary.BigEndian.AppendUint64(dst, uint64(a.PID))
	dst = append(dst, a.Level, a.Mode)
	dst = binary.BigEndian.AppendUint64(dst, a.File)
	dst = binary.BigEndian.AppendUint64(dst, a.Off)
	return binary.BigEndian.AppendUint64(dst, a.Len)
}

func decodeLockAcquire(data []byte) (LockAcquireArgs, error) {
	r := rpc.NewReader(data)
	a := LockAcquireArgs{Client: r.U64(), Txn: r.U64(), PID: int64(r.U64()), Level: r.U8(), Mode: r.U8(),
		File: r.U64(), Off: r.U64(), Len: r.U64()}
	return a, r.Done("cluster: lock acquire")
}

const lockTxnLen = 8 + 8

func appendLockTxn(dst []byte, a LockTxnArgs) []byte {
	dst = binary.BigEndian.AppendUint64(dst, a.Client)
	return binary.BigEndian.AppendUint64(dst, a.Txn)
}

func decodeLockTxn(data []byte) (LockTxnArgs, error) {
	r := rpc.NewReader(data)
	a := LockTxnArgs{Client: r.U64(), Txn: r.U64()}
	return a, r.Done("cluster: lock txn")
}

func appendLockReply(dst []byte, r LockReply) []byte {
	b := byte(0)
	if r.Granted {
		b = 1
	}
	return append(dst, b)
}

func decodeLockReply(data []byte) (LockReply, error) {
	r := rpc.NewReader(data)
	b := r.U8()
	if b > 1 {
		r.Fail(errors.New("neither 0 nor 1"))
	}
	return LockReply{Granted: b == 1}, r.Done("cluster: lock reply")
}

func mapSize(m Map) int {
	n := 8 + 4
	for _, e := range m.Endpoints {
		n += 4 + len(e)
	}
	n += 4
	for _, b := range m.Backups {
		n += 4 + len(b)
	}
	return n
}

func appendMap(dst []byte, m Map) []byte {
	dst = binary.BigEndian.AppendUint64(dst, m.Version)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Endpoints)))
	for _, e := range m.Endpoints {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(e)))
		dst = append(dst, e...)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Backups)))
	for _, b := range m.Backups {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
		dst = append(dst, b...)
	}
	return dst
}

func decodeMap(data []byte) (Map, error) {
	r := rpc.NewReader(data)
	m := Map{Version: r.U64(), Endpoints: r.Strings(), Backups: r.Strings()}
	return m, r.Done("cluster: map")
}
