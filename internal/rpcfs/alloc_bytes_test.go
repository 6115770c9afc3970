package rpcfs_test

// An external test package: the deployed stack is assembled by internal/node,
// which imports rpcfs.

import (
	"bytes"
	"net"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/node"
	"repro/internal/rpc"
)

// Bytes allocated per 4 KiB operation across both halves of a loopback
// node.Start/node.Dial pair — the whole deployed data path, client and server
// in this process. Measured: 9 544 B per cached read (the server's one reply
// buffer, 4 100 B in Go's 4 864 B size class; the client's one exact-size
// copy, 4 096 B; ~580 B of frame and span bookkeeping) and 736 B per write to
// a cached block, which lands in place. The ceilings are those plus 15 %.
// Before the one-copy-per-hop rule the same operations allocated 25 954 B and
// 8 928 B: per read a whole-block copy out of the cache, a result buffer, an
// encoded reply and a pooled 8 KiB client frame given away; per write a
// whole-block copy out of the cache.
const (
	readAllocBytesBudget  = 10975
	writeAllocBytesBudget = 850
)

func startPair(t *testing.T) (*node.Client, fileservice.FileID) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.Start(node.Config{
		Map:      cluster.Map{Version: 1, Endpoints: []string{ln.Addr().String()}},
		Listener: ln,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	cl, err := node.Dial(node.ClientConfig{Endpoints: []string{n.Addr()}, ClientID: 41})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	id, err := cl.Router.CreatePath(fit.Attributes{}, "/alloc/pair")
	if err != nil {
		t.Fatal(err)
	}
	// Two blocks, so the measured 4 KiB operations are partial-block ones on
	// blocks the server's cache holds.
	if _, err := cl.Files.WriteAt(id, 0, bytes.Repeat([]byte{0xA5}, 2*fileservice.BlockSize)); err != nil {
		t.Fatal(err)
	}
	return cl, id
}

func TestDataPathAllocBudgetBytes(t *testing.T) {
	cl, id := startPair(t)
	const unit = 4096
	buf := bytes.Repeat([]byte{0x5A}, unit)

	misses := rpc.BufferMisses()
	reads := 0
	read := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := cl.Files.ReadAt(id, int64(i%4)*unit, unit)
			if err != nil || len(got) != unit {
				b.Fatalf("ReadAt = %d bytes, %v", len(got), err)
			}
		}
		reads += b.N
	})
	if got := read.AllocedBytesPerOp(); got > readAllocBytesBudget {
		t.Errorf("4 KiB cached read allocates %d B/op across the pair, budget %d", got, readAllocBytesBudget)
	}
	// Every frame a read draws from the free lists goes back: after the
	// first few calls fill the lists, a get never has to allocate.
	misses = rpc.BufferMisses() - misses
	if misses > int64(reads/100+16) {
		t.Errorf("%d reads cost %d free-list misses; a read that hands its frames back costs none", reads, misses)
	}

	write := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if n, err := cl.Files.WriteAt(id, int64(i%4)*unit, buf); err != nil || n != unit {
				b.Fatalf("WriteAt = %d, %v", n, err)
			}
		}
	})
	if got := write.AllocedBytesPerOp(); got > writeAllocBytesBudget {
		t.Errorf("4 KiB write to a cached block allocates %d B/op across the pair, budget %d", got, writeAllocBytesBudget)
	}
	t.Logf("read %d B/op (%d allocs, %d free-list misses in %d reads), write %d B/op (%d allocs)",
		read.AllocedBytesPerOp(), read.AllocsPerOp(), misses, reads, write.AllocedBytesPerOp(), write.AllocsPerOp())
}
