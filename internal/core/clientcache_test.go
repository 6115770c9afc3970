package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/agent"
	"repro/internal/ccache"
	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/txn"
)

// The machine's client cache is assembled here (Cluster.NewMachine puts a
// local-mode ccache.Client under the agents), so what it promises a client
// process is tested here, on the assembled machine.

// cachedMachine builds a cluster whose recorder counts the client cache's
// gauges, and one machine on it.
func cachedMachine(t *testing.T, disable bool) (*Cluster, *obs.Recorder, *agent.Process, *agent.FileAgent) {
	t.Helper()
	rec := obs.New()
	c := newCluster(t, func(cfg *Config) { cfg.Obs, cfg.DisableClientCache = rec, disable })
	m, err := c.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	return c, rec, m.NewProcess(), m.FileAgent()
}

// fileID resolves path to the file service's ID.
func fileID(t *testing.T, c *Cluster, path string) fileservice.FileID {
	t.Helper()
	e, err := c.Naming.ResolvePath(path)
	if err != nil {
		t.Fatal(err)
	}
	return fileservice.FileID(e.SystemName)
}

// serverReads is how many block accesses the file service's cache has seen:
// every read that reaches the file service moves it.
func serverReads(c *Cluster) int64 {
	return c.Metrics.Get(metrics.ServerCacheHit) + c.Metrics.Get(metrics.ServerCacheMiss)
}

func TestClientCacheAvoidsFileService(t *testing.T) {
	c, rec, p, fa := cachedMachine(t, false)
	fd, err := fa.Create(p, "/cached", fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fa.PWrite(p, fd, 0, bytes.Repeat([]byte("c"), 8192)); err != nil {
		t.Fatal(err)
	}
	if _, err := fa.PRead(p, fd, 0, 8192); err != nil {
		t.Fatal(err)
	}
	hits, reads := rec.Gauge(ccache.MetricHits).Value(), serverReads(c)
	for i := 0; i < 10; i++ {
		if got, err := fa.PRead(p, fd, 100, 50); err != nil || string(got) != strings.Repeat("c", 50) {
			t.Fatalf("re-read %d = %q, %v", i, got, err)
		}
	}
	if got := rec.Gauge(ccache.MetricHits).Value() - hits; got < 10 {
		t.Fatalf("client cache hits = %d, want >= 10", got)
	}
	if got := serverReads(c) - reads; got != 0 {
		t.Fatalf("ten re-reads reached the file service's cache %d times", got)
	}
}

func TestDelayedWriteFlushedOnClose(t *testing.T) {
	c, _, p, fa := cachedMachine(t, false)
	fd, err := fa.Create(p, "/dw", fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fa.PWrite(p, fd, 0, []byte("delayed")); err != nil {
		t.Fatal(err)
	}
	id := fileID(t, c, "/dw")
	if size, err := c.Files.Size(id); err != nil || size != 0 {
		t.Fatalf("before close the file service holds %d bytes (err %v): the write was not delayed", size, err)
	}
	if attr, err := fa.GetAttribute(p, fd); err != nil || attr.Size != 7 {
		t.Fatalf("the writer's own view of the size = %d, %v", attr.Size, err)
	}
	if err := fa.Close(p, fd); err != nil {
		t.Fatal(err)
	}
	// Read directly from the file service, under the client cache.
	got, err := c.Files.ReadAt(id, 0, 7)
	if err != nil || string(got) != "delayed" {
		t.Fatalf("file service content = %q, %v", got, err)
	}
}

func TestClientCacheDisabled(t *testing.T) {
	c, rec, p, fa := cachedMachine(t, true)
	fd, err := fa.Create(p, "/nocache", fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fa.PWrite(p, fd, 0, []byte("direct")); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Files.ReadAt(fileID(t, c, "/nocache"), 0, 6); err != nil || string(got) != "direct" {
		t.Fatalf("with no client cache the write is in the file service at once: %q, %v", got, err)
	}
	got, err := fa.PRead(p, fd, 0, 6)
	if err != nil || string(got) != "direct" {
		t.Fatalf("no-cache round trip = %q, %v", got, err)
	}
	for name, v := range rec.Gauges() {
		if strings.HasPrefix(name, "ccache.") && v != 0 {
			t.Fatalf("gauge %s = %d with the client cache disabled", name, v)
		}
	}
}

// TestFileGrownByTransactionReadsPastOldEnd pins local mode's size rule.
// Nobody can tell the machine's cache that a committed transaction on the
// same facility grew a file it has read, so the cache may keep its blocks
// but must ask the size again: the new tail is there to read through a
// descriptor opened before the growth.
func TestFileGrownByTransactionReadsPastOldEnd(t *testing.T) {
	for _, disable := range []bool{false, true} {
		t.Run(fmt.Sprintf("DisableClientCache=%v", disable), func(t *testing.T) {
			c, _, p, fa := cachedMachine(t, disable)
			head := bytes.Repeat([]byte("h"), fileservice.BlockSize)
			fd, err := fa.Create(p, "/grown", fit.Attributes{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fa.PWrite(p, fd, 0, head); err != nil {
				t.Fatal(err)
			}
			if err := fa.Close(p, fd); err != nil {
				t.Fatal(err)
			}
			if fd, err = fa.Open(p, "/grown"); err != nil {
				t.Fatal(err)
			}
			if got, err := fa.PRead(p, fd, 0, 2*len(head)); err != nil || !bytes.Equal(got, head) {
				t.Fatalf("read before the growth: %d bytes, %v", len(got), err)
			}

			tail := bytes.Repeat([]byte("T"), 4096)
			growAt := int64(2 * fileservice.BlockSize) // past the end, leaving a hole
			id := fileID(t, c, "/grown")
			tid, err := c.Txns.Begin(1)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Txns.Open(tid, txn.FileID(id), fit.LockNone); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Txns.PWrite(tid, txn.FileID(id), growAt, tail); err != nil {
				t.Fatal(err)
			}
			if err := c.Txns.End(tid); err != nil {
				t.Fatal(err)
			}

			got, err := fa.PRead(p, fd, growAt, len(tail))
			if err != nil || !bytes.Equal(got, tail) {
				t.Fatalf("read of the grown tail through the old descriptor: %d bytes, %v", len(got), err)
			}
			if attr, err := fa.GetAttribute(p, fd); err != nil || int64(attr.Size) != growAt+int64(len(tail)) {
				t.Fatalf("size after the growth = %d, %v", attr.Size, err)
			}
			if pos, err := fa.LSeek(p, fd, 0, 2); err != nil || pos != growAt+int64(len(tail)) {
				t.Fatalf("seek to the end = %d, %v", pos, err)
			}
		})
	}
}

// TestMachineModel drives one machine with a seeded mix of create, open,
// close, delete, pwrite and pread on a few paths, plus committed transactions
// that grow a file behind the machine's back, and checks every read and every
// size against a byte slice per path — with the client cache and without it.
// The generator aims at what a block cache gets wrong: spans of one and of
// three blocks, and offsets one either side of the end of file.
func TestMachineModel(t *testing.T) {
	const bs = fileservice.BlockSize
	for _, disable := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("DisableClientCache=%v/seed=%d", disable, seed), func(t *testing.T) {
				c, _, p, fa := cachedMachine(t, disable)
				rng := rand.New(rand.NewSource(seed))
				type file struct {
					path   string
					exists bool
					fd     int // 0 when closed
					data   []byte
				}
				files := []*file{{path: "/model/a"}, {path: "/model/b"}, {path: "/model/c"}}
				span := func() int {
					if rng.Intn(2) == 0 {
						return 1 + rng.Intn(bs) // within one block's length
					}
					return 2*bs + 1 + rng.Intn(bs) // touches three blocks at least
				}
				offset := func(f *file) int64 {
					size := int64(len(f.data))
					switch rng.Intn(4) {
					case 0: // EOF - 1, EOF, EOF + 1
						if off := size - 1 + int64(rng.Intn(3)); off >= 0 {
							return off
						}
						return 0
					case 1: // a block boundary ± 1
						if off := int64(rng.Intn(5))*bs - 1 + int64(rng.Intn(3)); off >= 0 {
							return off
						}
						return 0
					default:
						return rng.Int63n(size + bs)
					}
				}
				put := func(f *file, off int64, data []byte) {
					if end := off + int64(len(data)); end > int64(len(f.data)) {
						f.data = append(f.data, make([]byte, end-int64(len(f.data)))...)
					}
					copy(f.data[off:], data)
				}
				for i := 0; i < 400; i++ {
					f := files[rng.Intn(len(files))]
					what := fmt.Sprintf("op %d on %s", i, f.path)
					var err error
					switch op := rng.Intn(20); {
					case !f.exists:
						f.fd, err = fa.Create(p, f.path, fit.Attributes{})
						f.exists, f.data = true, nil
					case f.fd == 0 && op == 0:
						err = fa.Delete(f.path)
						f.exists = false
					case f.fd == 0:
						f.fd, err = fa.Open(p, f.path)
					case op < 2:
						err = fa.Close(p, f.fd)
						f.fd = 0
					case op < 4:
						// A committed transaction grows the file from the first
						// block the machine cannot have cached: past the end,
						// which local mode promises to notice (its blocks it
						// trusts — see DESIGN.md).
						off := (int64(len(f.data))+bs-1)/bs*bs + int64(rng.Intn(2))*bs
						data := make([]byte, span())
						rng.Read(data)
						id := txn.FileID(fileID(t, c, f.path))
						var tid txn.TxnID
						if tid, err = c.Txns.Begin(1); err == nil {
							if err = c.Txns.Open(tid, id, fit.LockNone); err == nil {
								_, err = c.Txns.PWrite(tid, id, off, data)
							}
							if err == nil {
								err = c.Txns.End(tid)
							}
						}
						put(f, off, data)
					case op < 11:
						off, data := offset(f), make([]byte, span())
						rng.Read(data)
						var n int
						if n, err = fa.PWrite(p, f.fd, off, data); err == nil && n != len(data) {
							err = fmt.Errorf("short write: %d of %d", n, len(data))
						}
						put(f, off, data)
					default:
						off, n := offset(f), span()
						want := []byte(nil)
						if off < int64(len(f.data)) {
							want = f.data[off:min(off+int64(n), int64(len(f.data)))]
						}
						var got []byte
						if got, err = fa.PRead(p, f.fd, off, n); err == nil && !bytes.Equal(got, want) {
							t.Fatalf("%s: pread(%d, %d) of a %d-byte file returned %d bytes, want %d (first difference at %d)",
								what, off, n, len(f.data), len(got), len(want), firstDiff(got, want))
						}
						var attr fit.Attributes
						if attr, err = fa.GetAttribute(p, f.fd); err == nil && int(attr.Size) != len(f.data) {
							t.Fatalf("%s: size %d, want %d", what, attr.Size, len(f.data))
						}
					}
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
				}
				// What the machine leaves behind once everything is closed is
				// what the model holds, read under the cache.
				for _, f := range files {
					if !f.exists {
						continue
					}
					if f.fd != 0 {
						if err := fa.Close(p, f.fd); err != nil {
							t.Fatal(err)
						}
					}
					got, err := c.Files.ReadAt(fileID(t, c, f.path), 0, len(f.data)+1)
					if err != nil || !bytes.Equal(got, f.data) {
						t.Fatalf("%s after close: file service holds %d bytes, want %d (first difference at %d, err %v)",
							f.path, len(got), len(f.data), firstDiff(got, f.data), err)
					}
				}
			})
		}
	}
}

// firstDiff is the index of the first byte at which a and b differ.
func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
