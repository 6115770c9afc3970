package cache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
)

// The model: a cache is transparent. Whatever interleaving of evictions and
// flushes other callers cause, the one writer of a key always reads through
// to the last bytes it wrote — from the cache on a hit, from the layer below
// on a miss — and after a flush the layer below holds exactly those bytes.
// The layer below is a plain map; the reference for each key is a plain byte
// slice the key's writer keeps.

const (
	modelWords = 8 // word 0 tags the key, words 1..7 carry versions
	modelSize  = modelWords * 8
)

func word(buf []byte, i int) uint64 { return binary.LittleEndian.Uint64(buf[i*8:]) }

// modelStore is the layer below, recording every writeback it takes.
type modelStore struct {
	t     *testing.T
	steps atomic.Int64 // operations the owners have started
	mu    sync.Mutex
	data  map[int][]byte
}

func (s *modelStore) get(key int) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.data[key]...)
}

func (s *modelStore) set(key int, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[key] = append([]byte(nil), data...)
}

// writeback checks the buffer is whole, is key's, and is no older in any word
// than what is already below: writebacks of one key are serialized, so a
// stale image can never land on a newer one.
//
// It is also where the lending rule is checked, at both call sites
// (FlushKey, eviction): data is the cache's own buffer, not a copy, so it is
// summed, left in flight until some owner has started another operation — a
// WriteRange, Patch, Put, Fill or Invalidate of this key, an evicting Put or
// Fill of another — and summed again (holdStill). (The wait is bounded: an
// eviction writeback runs under the cache mutex, where nobody can step.)
func (s *modelStore) writeback(key int, data []byte) error {
	s.holdStill("writeback", key, data)
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(data) != modelSize || word(data, 0) != uint64(key) {
		s.t.Errorf("writeback of key %d: %d bytes tagged %d", key, len(data), word(data, 0))
		return nil
	}
	for i := 1; i < modelWords; i++ {
		if old := s.data[key]; word(data, i) < word(old, i) {
			s.t.Errorf("writeback of key %d: word %d goes back from version %d to %d", key, i, word(old, i), word(data, i))
		}
	}
	s.data[key] = append([]byte(nil), data...)
	return nil
}

// holdStill sums buf, keeps it until some owner has started another
// operation, and sums it again: the buffer — lent to a writeback, or handed
// to a Fill's filler — must not change while the caller holds it.
func (s *modelStore) holdStill(what string, key int, buf []byte) {
	before := crc32.ChecksumIEEE(buf)
	for i, at := 0, s.steps.Load(); i < 16 && s.steps.Load() == at; i++ {
		runtime.Gosched()
	}
	if after := crc32.ChecksumIEEE(buf); after != before {
		s.t.Errorf("%s of key %d: the buffer changed while the call held it (crc %08x, then %08x)", what, key, before, after)
	}
}

func TestModelEquivalence(t *testing.T) {
	const (
		owners       = 3
		keysPerOwner = 3
		steps        = 1500
	)
	// Under write-through the owner flushes every key it writes before the
	// write's step ends, as the file service does for a transaction file.
	for _, mode := range []string{"delayed-write", "write-through"} {
		for capacity := 1; capacity <= 4; capacity++ {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/cap=%d/seed=%d", mode, capacity, seed), func(t *testing.T) {
					store := &modelStore{t: t, data: make(map[int][]byte)}
					met := metrics.NewSet()
					c, err := New(Config[int]{
						Capacity: capacity, Writeback: store.writeback,
						Metrics: met, HitCounter: "hit", MissCounter: "miss",
					})
					if err != nil {
						t.Fatal(err)
					}
					for k := 0; k < owners*keysPerOwner; k++ {
						buf := make([]byte, modelSize)
						binary.LittleEndian.PutUint64(buf, uint64(k))
						store.data[k] = buf
					}
					var lookups atomic.Int64 // Get, ReadRange and WriteRange calls: one hit or miss each

					var wg sync.WaitGroup
					for o := 0; o < owners; o++ {
						wg.Add(1)
						go func(o int) {
							defer wg.Done()
							runOwner(t, c, store, &lookups, rand.New(rand.NewSource(seed*100+int64(o))), o*keysPerOwner, keysPerOwner, steps, mode == "write-through")
						}(o)
					}
					// Whole-cache traffic racing the owners: a flusher, and a
					// reader that can only check whose buffer it was handed.
					stop := make(chan struct{})
					var bg sync.WaitGroup
					bg.Add(2)
					go func() {
						defer bg.Done()
						for {
							select {
							case <-stop:
								return
							default:
							}
							if err := c.Flush(); err != nil {
								t.Errorf("Flush: %v", err)
								return
							}
						}
					}()
					go func() {
						defer bg.Done()
						for k := 0; ; k = (k + 1) % (owners * keysPerOwner) {
							select {
							case <-stop:
								return
							default:
							}
							lookups.Add(1)
							if data, ok := c.Get(k); ok && (len(data) != modelSize || word(data, 0) != uint64(k)) {
								t.Errorf("Get(%d) returned %d bytes tagged %d", k, len(data), word(data, 0))
								return
							}
						}
					}()
					wg.Wait()
					close(stop)
					bg.Wait()

					if n := c.Len(); n > capacity {
						t.Errorf("Len = %d over capacity %d", n, capacity)
					}
					if got := met.Get("hit") + met.Get("miss"); got != lookups.Load() {
						t.Errorf("hits+misses = %d, lookups made = %d", got, lookups.Load())
					}
				})
			}
		}
	}
}

// runOwner is the one writer of keys [base, base+n): it applies random
// operations to them and checks each against its reference copy. Under
// through it flushes each key it writes before the step ends.
func runOwner(t *testing.T, c *Cache[int], store *modelStore, lookups *atomic.Int64, rng *rand.Rand, base, n, steps int, through bool) {
	want := make([][]byte, n)
	dirty := make([]bool, n) // the cache may hold bytes the store has not seen
	for i := range want {
		want[i] = store.get(base + i)
	}
	version := uint64(0)
	// patched returns buf with words [a, b) at a fresh version, and the bytes
	// of that range.
	patched := func(buf []byte, a, b int) (next, patch []byte) {
		next = append([]byte(nil), buf...)
		for w := a; w < b; w++ {
			version++
			binary.LittleEndian.PutUint64(next[w*8:], version)
		}
		return next, next[a*8 : b*8]
	}
	below := func(ctx string, key int, want []byte) {
		if got := store.get(key); !bytes.Equal(got, want) {
			t.Errorf("%s: the store holds %v, reference %v", ctx, got, want)
		}
	}
	for step := 0; step < steps && !t.Failed(); step++ {
		store.steps.Add(1)
		i := rng.Intn(n)
		key := base + i
		a := 1 + rng.Intn(modelWords-1)
		b := a + 1 + rng.Intn(modelWords-a)
		ctx := fmt.Sprintf("step %d key %d", step, key)
		switch op := rng.Intn(15); {
		case op < 1:
			lookups.Add(1)
			if data, ok := c.Get(key); !ok {
				below(ctx+": Get missed", key, want[i])
			} else if !bytes.Equal(data, want[i]) {
				t.Errorf("%s: Get = %v, reference %v", ctx, data, want[i])
			}
		case op < 3:
			dst := make([]byte, (b-a)*8)
			lookups.Add(1)
			if !c.ReadRange(key, a*8, dst) {
				below(ctx+": ReadRange missed", key, want[i])
			} else if !bytes.Equal(dst, want[i][a*8:b*8]) {
				t.Errorf("%s: ReadRange[%d:%d] = %v, reference %v", ctx, a*8, b*8, dst, want[i][a*8:b*8])
			}
		case op < 4: // what a read miss installs: the bytes below, clean
			if err := c.Put(key, want[i], false); err != nil {
				t.Errorf("%s: clean Put: %v", ctx, err)
			}
		case op < 6:
			want[i], _ = patched(want[i], 1, modelWords)
			if err := c.Put(key, want[i], true); err != nil {
				t.Errorf("%s: dirty Put: %v", ctx, err)
			}
			dirty[i] = true
		case op < 8:
			next, patch := patched(want[i], a, b)
			lookups.Add(1)
			if !c.WriteRange(key, a*8, patch) {
				// The file service's miss path: read below, modify, Put.
				below(ctx+": WriteRange missed", key, want[i])
				if err := c.Put(key, next, true); err != nil {
					t.Errorf("%s: dirty Put after missed WriteRange: %v", ctx, err)
				}
			}
			want[i], dirty[i] = next, true
		case op < 9: // Patch follows a write the layer below has taken; clean buffers only
			if dirty[i] {
				if err := c.FlushKey(key); err != nil {
					t.Errorf("%s: FlushKey: %v", ctx, err)
				}
				dirty[i] = false
			}
			next, patch := patched(want[i], a, b)
			store.set(key, next)
			c.Patch(key, a*8, patch)
			want[i] = next
		case op < 10:
			if err := c.FlushKey(key); err != nil {
				t.Errorf("%s: FlushKey: %v", ctx, err)
			}
			below(ctx+": after FlushKey", key, want[i])
			dirty[i] = false
		case op < 11:
			if err := c.Flush(); err != nil {
				t.Errorf("%s: Flush: %v", ctx, err)
			}
			for j := range want {
				below(ctx+": after Flush", base+j, want[j])
				dirty[j] = false
			}
		case op < 12: // dirty bytes are discarded: the truth is whatever is below
			c.Invalidate(key)
			want[i], dirty[i] = store.get(key), false
		case op < 13: // the file service's read miss: fill, copy out, install clean
			dst := make([]byte, (b-a)*8)
			lookups.Add(1)
			if c.ReadRange(key, a*8, dst) {
				break
			}
			below(ctx+": ReadRange missed before Fill", key, want[i])
			n, err := c.Fill([]int{key}, modelSize, 0, 0, func(buf []byte) error {
				copy(buf, store.get(key))
				store.holdStill("Fill", key, buf)
				copy(dst, buf[a*8:b*8])
				return nil
			})
			if err != nil || n != 1 {
				t.Errorf("%s: Fill after a miss = %d, %v; want 1 installed", ctx, n, err)
			} else if !bytes.Equal(dst, want[i][a*8:b*8]) {
				t.Errorf("%s: Fill copied out %v, reference %v", ctx, dst, want[i][a*8:b*8])
			}
		case op < 14: // the file service's write miss: fill, patch, install dirty
			next, patch := patched(want[i], a, b)
			lookups.Add(1)
			if !c.WriteRange(key, a*8, patch) {
				below(ctx+": WriteRange missed before Fill", key, want[i])
				n, err := c.Fill([]int{key}, modelSize, 0, 1, func(buf []byte) error {
					copy(buf, store.get(key))
					copy(buf[a*8:], patch)
					store.holdStill("Fill", key, buf)
					return nil
				})
				if err != nil || n != 1 {
					t.Errorf("%s: dirty Fill after a miss = %d, %v; want 1 installed", ctx, n, err)
				}
			}
			want[i], dirty[i] = next, true
		default: // a fill that fails installs nothing, its bytes included
			lookups.Add(1)
			if c.ReadRange(key, a*8, make([]byte, (b-a)*8)) {
				break
			}
			failed := fmt.Errorf("device failed")
			n, err := c.Fill([]int{key}, modelSize, 0, 1, func(buf []byte) error {
				for w := range buf {
					buf[w] = 0xEE
				}
				return failed
			})
			if n != 0 || err != failed {
				t.Errorf("%s: failing Fill = %d, %v; want 0 installed and its error", ctx, n, err)
			}
			if c.Contains(key) {
				t.Errorf("%s: a failed Fill installed the key", ctx)
			}
		}
		if through {
			// Nothing stays dirty past the step that wrote it.
			if err := c.FlushKey(key); err != nil {
				t.Errorf("%s: write-through FlushKey: %v", ctx, err)
			}
			below(ctx+": write-through", key, want[i])
			dirty[i] = false
		}
	}
	if err := c.Flush(); err != nil {
		t.Errorf("final Flush: %v", err)
	}
	for j := range want {
		below("after the final Flush", base+j, want[j])
	}
}

// TestWriteRangeDuringFlush pins the interleavings the generation number and
// the lending rule exist for. FlushKey's writeback is parked holding the
// entry's own buffer while one more operation runs against the cache: the
// buffer must read the same before and after; a write that lands must leave
// the entry dirty and reach the store on the next flush; an operation that
// would take the buffer away (Invalidate, an eviction with nothing else to
// evict) must wait the writeback out.
func TestWriteRangeDuringFlush(t *testing.T) {
	const key, other = 7, 8
	for _, tc := range []struct {
		name  string
		op    func(c *Cache[int]) error
		waits func(capacity int) bool // op cannot finish before the writeback does
		// second is the image the next FlushKey writes ("" when the entry
		// was left clean or is gone).
		second string
	}{
		{name: "WriteRange", second: "aaBBaaaa", op: func(c *Cache[int]) error {
			if !c.WriteRange(key, 2, []byte("BB")) {
				return fmt.Errorf("WriteRange missed")
			}
			return nil
		}},
		{name: "same-key Put", second: "CCCCCCCC", op: func(c *Cache[int]) error {
			return c.Put(key, []byte("CCCCCCCC"), true)
		}},
		{name: "Patch", op: func(c *Cache[int]) error {
			if c.Patch(key, 2, []byte("BB")) {
				return fmt.Errorf("Patch wrote into a dirty buffer")
			}
			return nil
		}},
		{name: "Invalidate", waits: func(int) bool { return true }, op: func(c *Cache[int]) error {
			c.Invalidate(key)
			return nil
		}},
		{name: "evicting Put", waits: func(capacity int) bool { return capacity == 1 }, op: func(c *Cache[int]) error {
			return c.Put(other, []byte("eeeeeeee"), false)
		}},
	} {
		for capacity := 1; capacity <= 4; capacity++ {
			t.Run(fmt.Sprintf("%s/cap=%d", tc.name, capacity), func(t *testing.T) {
				entered, release := make(chan struct{}), make(chan struct{})
				var returned atomic.Bool // the parked writeback is past its second checksum
				var mu sync.Mutex
				var wrote []string
				c, err := New(Config[int]{Capacity: capacity, Writeback: func(k int, data []byte) error {
					mu.Lock()
					wrote = append(wrote, string(data))
					first := len(wrote) == 1
					mu.Unlock()
					if first {
						before := crc32.ChecksumIEEE(data)
						close(entered)
						<-release
						if after := crc32.ChecksumIEEE(data); after != before {
							t.Errorf("the lent buffer changed while the writeback held it: now %q", data)
						}
						returned.Store(true)
					}
					return nil
				}})
				if err != nil {
					t.Fatal(err)
				}
				// Fill the cache with clean neighbours, key last so it is the
				// one an eviction would not pick while anything else is there.
				for k := 100; k < 100+capacity-1; k++ {
					if err := c.Put(k, []byte("nnnnnnnn"), false); err != nil {
						t.Fatal(err)
					}
				}
				if err := c.Put(key, []byte("aaaaaaaa"), true); err != nil {
					t.Fatal(err)
				}
				flushed := make(chan error, 1)
				go func() { flushed <- c.FlushKey(key) }()
				<-entered
				opDone := make(chan error, 1)
				go func() {
					err := tc.op(c)
					if tc.waits != nil && tc.waits(capacity) && !returned.Load() {
						err = fmt.Errorf("finished while the writeback still held the buffer")
					}
					opDone <- err
				}()
				if tc.waits == nil || !tc.waits(capacity) {
					// The operation does not depend on the writeback: it must
					// finish while the writeback is still parked.
					if err := <-opDone; err != nil {
						t.Fatal(err)
					}
					opDone <- nil
				}
				close(release)
				if err := <-flushed; err != nil {
					t.Fatal(err)
				}
				if err := <-opDone; err != nil {
					t.Fatal(err)
				}
				wantDirty := 0
				if tc.second != "" {
					wantDirty = 1
				}
				if n := c.DirtyCount(); n != wantDirty {
					t.Fatalf("DirtyCount after the flush = %d, want %d", n, wantDirty)
				}
				if err := c.FlushKey(key); err != nil {
					t.Fatal(err)
				}
				if n := c.DirtyCount(); n != 0 {
					t.Fatalf("DirtyCount after the second flush = %d, want 0", n)
				}
				want := []string{"aaaaaaaa"}
				if tc.second != "" {
					want = append(want, tc.second)
				}
				if fmt.Sprint(wrote) != fmt.Sprint(want) {
					t.Fatalf("writebacks = %q, want %q", wrote, want)
				}
			})
		}
	}
}
