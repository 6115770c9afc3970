package cluster

// Cluster control-plane methods and their payloads: the same fixed-layout
// binary encoding as rpcfs (big-endian integers, u32-length-prefixed
// strings).

import (
	"encoding/binary"
	"errors"
	"fmt"
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
	var a LockAcquireArgs
	if len(data) != lockAcquireLen {
		return a, fmt.Errorf("cluster: lock acquire payload %d bytes, want %d", len(data), lockAcquireLen)
	}
	a.Client = binary.BigEndian.Uint64(data[0:])
	a.Txn = binary.BigEndian.Uint64(data[8:])
	a.PID = int64(binary.BigEndian.Uint64(data[16:]))
	a.Level = data[24]
	a.Mode = data[25]
	a.File = binary.BigEndian.Uint64(data[26:])
	a.Off = binary.BigEndian.Uint64(data[34:])
	a.Len = binary.BigEndian.Uint64(data[42:])
	return a, nil
}

const lockTxnLen = 8 + 8

func appendLockTxn(dst []byte, a LockTxnArgs) []byte {
	dst = binary.BigEndian.AppendUint64(dst, a.Client)
	return binary.BigEndian.AppendUint64(dst, a.Txn)
}

func decodeLockTxn(data []byte) (LockTxnArgs, error) {
	var a LockTxnArgs
	if len(data) != lockTxnLen {
		return a, fmt.Errorf("cluster: lock txn payload %d bytes, want %d", len(data), lockTxnLen)
	}
	a.Client = binary.BigEndian.Uint64(data[0:])
	a.Txn = binary.BigEndian.Uint64(data[8:])
	return a, nil
}

func appendLockReply(dst []byte, r LockReply) []byte {
	b := byte(0)
	if r.Granted {
		b = 1
	}
	return append(dst, b)
}

func decodeLockReply(data []byte) (LockReply, error) {
	if len(data) != 1 {
		return LockReply{}, fmt.Errorf("cluster: lock reply payload %d bytes, want 1", len(data))
	}
	return LockReply{Granted: data[0] == 1}, nil
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
	if len(data) < 16 {
		return Map{}, fmt.Errorf("cluster: map payload %d bytes, want >= 16", len(data))
	}
	m := Map{Version: binary.BigEndian.Uint64(data)}
	var err error
	rest := data[8:]
	if m.Endpoints, rest, err = decodeStrings(rest, "endpoint"); err != nil {
		return m, err
	}
	m.Backups, _, err = decodeStrings(rest, "backup")
	return m, err
}

// decodeStrings reads one of the map's string lists — a u32 count, then each
// string as a u32 length and its bytes — and returns the bytes after it.
func decodeStrings(data []byte, what string) ([]string, []byte, error) {
	if len(data) < 4 {
		return nil, nil, errors.New("cluster: truncated map payload")
	}
	n := int(binary.BigEndian.Uint32(data))
	data = data[4:]
	if n > len(data)/4 { // each string needs at least its length word
		return nil, nil, fmt.Errorf("cluster: map %s count %d exceeds payload", what, n)
	}
	list := make([]string, n)
	for i := range list {
		if len(data) < 4 {
			return nil, nil, errors.New("cluster: truncated map payload")
		}
		l := int(binary.BigEndian.Uint32(data))
		data = data[4:]
		if l > len(data) {
			return nil, nil, errors.New("cluster: truncated map payload")
		}
		list[i] = string(data[:l])
		data = data[l:]
	}
	return list, data, nil
}
