package cache

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/metrics"
)

func newDelayed(t *testing.T, capacity int, wb WritebackFunc[int]) *Cache[int] {
	t.Helper()
	c, err := New(Config[int]{Capacity: capacity, Writeback: wb})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config[int]{Capacity: 0}); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	c := newDelayed(t, 4, nil)
	if err := c.Put(1, []byte("hello"), false); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(1)
	if !ok || string(got) != "hello" {
		t.Fatalf("Get = %q,%v, want hello,true", got, ok)
	}
	if _, ok := c.Get(2); ok {
		t.Fatal("Get of absent key succeeded")
	}
}

// The ownership rule: Put copies the caller's bytes in and Get copies the
// buffer out, so neither side ever sees the other's later writes; a
// writeback alone is lent the cache's own buffer, for the length of the call.
func TestBuffersAreCopied(t *testing.T) {
	var lent []byte
	c := newDelayed(t, 4, func(k int, data []byte) error {
		lent = data
		return nil
	})
	src := []byte("abc")
	if err := c.Put(1, src, true); err != nil {
		t.Fatal(err)
	}
	src[0] = 'z'
	got, _ := c.Get(1)
	if string(got) != "abc" {
		t.Fatal("Put did not copy the caller's buffer")
	}
	got[0] = 'q'
	again, _ := c.Get(1)
	if string(again) != "abc" {
		t.Fatal("Get did not return a copy")
	}
	if err := c.FlushKey(1); err != nil {
		t.Fatal(err)
	}
	if string(lent) != "abc" {
		t.Fatalf("writeback saw %q", lent)
	}
	// Lent, not copied: a flush moves no bytes inside the cache, so the
	// writeback's slice is the buffer the next in-place write lands in.
	if !c.WriteRange(1, 0, []byte("X")) {
		t.Fatal("WriteRange missed")
	}
	if string(lent) != "Xbc" {
		t.Fatalf("after the call returned the slice reads %q: FlushKey handed the writeback a copy", lent)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newDelayed(t, 2, nil)
	mustPut := func(k int) {
		t.Helper()
		if err := c.Put(k, []byte{byte(k)}, false); err != nil {
			t.Fatal(err)
		}
	}
	mustPut(1)
	mustPut(2)
	c.Get(1) // 1 is now most recent
	mustPut(3)
	if c.Contains(2) {
		t.Fatal("LRU victim 2 still cached")
	}
	if !c.Contains(1) || !c.Contains(3) {
		t.Fatal("wrong entries evicted")
	}
}

func TestDelayedWriteFlushesOnEviction(t *testing.T) {
	var wrote []int
	c := newDelayed(t, 1, func(k int, data []byte) error {
		wrote = append(wrote, k)
		return nil
	})
	if err := c.Put(1, []byte("x"), true); err != nil {
		t.Fatal(err)
	}
	if len(wrote) != 0 {
		t.Fatal("delayed-write wrote back before eviction")
	}
	if err := c.Put(2, []byte("y"), false); err != nil {
		t.Fatal(err)
	}
	if len(wrote) != 1 || wrote[0] != 1 {
		t.Fatalf("eviction writebacks = %v, want [1]", wrote)
	}
}

func TestFlushWritesDirtyOnly(t *testing.T) {
	var wrote []int
	c := newDelayed(t, 4, func(k int, data []byte) error {
		wrote = append(wrote, k)
		return nil
	})
	if err := c.Put(1, []byte("a"), true); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(2, []byte("b"), false); err != nil {
		t.Fatal(err)
	}
	if got := c.DirtyCount(); got != 1 {
		t.Fatalf("DirtyCount = %d, want 1", got)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(wrote) != 1 || wrote[0] != 1 {
		t.Fatalf("flush wrote %v, want [1]", wrote)
	}
	if got := c.DirtyCount(); got != 0 {
		t.Fatalf("DirtyCount after flush = %d, want 0", got)
	}
	// Second flush is a no-op.
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(wrote) != 1 {
		t.Fatalf("second flush rewrote: %v", wrote)
	}
}

func TestFlushKey(t *testing.T) {
	var wrote []int
	c := newDelayed(t, 4, func(k int, data []byte) error {
		wrote = append(wrote, k)
		return nil
	})
	if err := c.Put(1, []byte("a"), true); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushKey(2); err != nil { // absent key: no-op
		t.Fatal(err)
	}
	if err := c.FlushKey(1); err != nil {
		t.Fatal(err)
	}
	if len(wrote) != 1 || wrote[0] != 1 {
		t.Fatalf("FlushKey wrote %v, want [1]", wrote)
	}
}

func TestDirtyBitSticksAcrossCleanPut(t *testing.T) {
	var wrote []int
	c := newDelayed(t, 4, func(k int, data []byte) error {
		wrote = append(wrote, k)
		return nil
	})
	if err := c.Put(1, []byte("a"), true); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(1, []byte("b"), false); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(wrote) != 1 {
		t.Fatalf("dirty bit lost on clean re-Put: wrote %v", wrote)
	}
}

func TestInvalidateDiscardsDirty(t *testing.T) {
	var wrote []int
	c := newDelayed(t, 4, func(k int, data []byte) error {
		wrote = append(wrote, k)
		return nil
	})
	if err := c.Put(1, []byte("a"), true); err != nil {
		t.Fatal(err)
	}
	c.Invalidate(1)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(wrote) != 0 {
		t.Fatalf("invalidated dirty buffer was written back: %v", wrote)
	}
	if c.Contains(1) {
		t.Fatal("entry survives Invalidate")
	}
}

func TestInvalidateAll(t *testing.T) {
	c := newDelayed(t, 4, nil)
	for i := 0; i < 3; i++ {
		if err := c.Put(i, []byte("x"), false); err != nil {
			t.Fatal(err)
		}
	}
	c.InvalidateAll()
	if c.Len() != 0 {
		t.Fatalf("Len after InvalidateAll = %d, want 0", c.Len())
	}
}

func TestEvictionWritebackFailureKeepsVictim(t *testing.T) {
	fail := errors.New("disk down")
	c := newDelayed(t, 1, func(k int, data []byte) error { return fail })
	if err := c.Put(1, []byte("a"), true); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(2, []byte("b"), false); !errors.Is(err, fail) {
		t.Fatalf("Put during failed eviction = %v, want wrapped disk error", err)
	}
	if !c.Contains(1) {
		t.Fatal("victim discarded despite failed writeback")
	}
}

func TestDirtyWithNoWritebackErrors(t *testing.T) {
	c := newDelayed(t, 1, nil)
	if err := c.Put(1, []byte("a"), true); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err == nil {
		t.Fatal("Flush of dirty buffer with nil writeback succeeded")
	}
}

func TestHitMissCounters(t *testing.T) {
	met := metrics.NewSet()
	c, err := New(Config[int]{
		Capacity: 2, Writeback: nil,
		Metrics: met, HitCounter: "h", MissCounter: "m",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(1, []byte("a"), false); err != nil {
		t.Fatal(err)
	}
	c.Get(1)
	c.Get(1)
	c.Get(9)
	if met.Get("h") != 2 || met.Get("m") != 1 {
		t.Fatalf("hits=%d misses=%d, want 2 and 1", met.Get("h"), met.Get("m"))
	}
}

func TestReadRange(t *testing.T) {
	met := metrics.NewSet()
	c, err := New(Config[int]{Capacity: 2, Metrics: met, HitCounter: "h", MissCounter: "m"})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 2; k++ {
		if err := c.Put(k, []byte("0123456789"), false); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]byte, 3)
	if !c.ReadRange(1, 4, dst) || string(dst) != "456" {
		t.Fatalf("ReadRange = %q, want 456", dst)
	}
	if c.ReadRange(9, 0, dst) {
		t.Fatal("ReadRange of absent key succeeded")
	}
	if h, m := met.Get("h"), met.Get("m"); h != 1 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 1 and 1", h, m)
	}
	// The range read made key 1 the most recent: key 2 is the one evicted.
	if err := c.Put(3, []byte("x"), false); err != nil {
		t.Fatal(err)
	}
	if !c.Contains(1) || c.Contains(2) {
		t.Fatal("ReadRange did not touch the LRU order")
	}
}

func TestPatch(t *testing.T) {
	var written []byte
	c := newDelayed(t, 2, func(_ int, data []byte) error {
		written = append([]byte(nil), data...)
		return nil
	})
	if c.Patch(1, 0, []byte("x")) {
		t.Fatal("Patch of absent key reported success")
	}
	if err := c.Put(1, []byte("0123456789"), false); err != nil {
		t.Fatal(err)
	}
	if !c.Patch(1, 2, []byte("ab")) {
		t.Fatal("Patch of clean buffer failed")
	}
	if got, _ := c.Get(1); string(got) != "01ab456789" {
		t.Fatalf("after Patch: %q", got)
	}
	// A patch says the layer below already has the bytes: the buffer stays
	// clean, and a dirty buffer — newer than the layer below — is left alone.
	if c.DirtyCount() != 0 {
		t.Fatal("Patch dirtied the buffer")
	}
	if err := c.Put(2, []byte("dirty"), true); err != nil {
		t.Fatal(err)
	}
	if c.Patch(2, 0, []byte("D")) {
		t.Fatal("Patch of dirty buffer reported success")
	}
	if err := c.FlushKey(2); err != nil || string(written) != "dirty" {
		t.Fatalf("dirty buffer wrote back %q (%v), want dirty", written, err)
	}
}

// TestConcurrentPatchesAllLand: patches of disjoint ranges of one buffer
// from many goroutines must all be in the buffer afterwards.
func TestConcurrentPatchesAllLand(t *testing.T) {
	const writers, width = 16, 64
	c := newDelayed(t, 1, nil)
	for round := 0; round < 100; round++ {
		if err := c.Put(1, make([]byte, writers*width), false); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				part := make([]byte, width)
				for i := range part {
					part[i] = byte(w + 1)
				}
				c.Patch(1, w*width, part)
			}(w)
		}
		wg.Wait()
		got, _ := c.Get(1)
		for i, b := range got {
			if b != byte(i/width+1) {
				t.Fatalf("round %d: byte %d is %d, want %d: a patch was lost", round, i, b, i/width+1)
			}
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := newDelayed(t, 16, func(k int, data []byte) error { return nil })
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (w*200 + i) % 32
				if err := c.Put(k, []byte{byte(k)}, i%2 == 0); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if got, ok := c.Get(k); ok && len(got) == 1 && got[0] != byte(k) {
					t.Errorf("Get(%d) = %v", k, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestFillInstallsByMask: one fill of a run installs every key it is not
// told to skip, dirty where it is told to — clean keys first, so a dirty one
// ends up most recently used, as a write after the read would leave it — and
// counts no lookup.
func TestFillInstallsByMask(t *testing.T) {
	met := metrics.NewSet()
	var wrote []int
	c, err := New(Config[int]{Capacity: 3, Writeback: func(k int, data []byte) error {
		wrote = append(wrote, k)
		return nil
	}, Metrics: met, HitCounter: "h", MissCounter: "m"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(1, []byte("newr"), true); err != nil { // newer than below
		t.Fatal(err)
	}
	n, err := c.Fill([]int{0, 1, 2}, 4, 1<<1, 1<<0, func(buf []byte) error {
		copy(buf, "AAAAoldrCCCC")
		return nil
	})
	if err != nil || n != 2 {
		t.Fatalf("Fill = %d, %v; want 2 installed", n, err)
	}
	if met.Get("h") != 0 || met.Get("m") != 0 {
		t.Errorf("Fill counted %d hits and %d misses, want none", met.Get("h"), met.Get("m"))
	}
	if c.DirtyCount() != 2 {
		t.Errorf("DirtyCount = %d, want 2: the dirty Put and the dirty fill", c.DirtyCount())
	}
	// Least recently used first: the Put (1), the clean fill (2), the dirty
	// fill (0). Two one-key fills evict the first two, writing back the
	// dirty one.
	for _, key := range []int{7, 8} {
		if _, err := c.Fill([]int{key}, 4, 0, 0, func(buf []byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if fmt.Sprint(wrote) != "[1]" || c.Contains(1) || c.Contains(2) {
		t.Fatalf("after two evicting fills: wrote back %v, 1 cached %v, 2 cached %v; want 1 and 2 evicted, 1 written back",
			wrote, c.Contains(1), c.Contains(2))
	}
	if got, ok := c.Get(0); !ok || string(got) != "AAAA" {
		t.Errorf("Get(0) = %q, %v; want the dirty fill's bytes", got, ok)
	}
}

// TestFillFailureInstallsNothing: a filler that fails leaves the cache as it
// was — no victim evicted or written back, no key installed.
func TestFillFailureInstallsNothing(t *testing.T) {
	writebacks := 0
	c := newDelayed(t, 1, func(int, []byte) error { writebacks++; return nil })
	if err := c.Put(1, []byte("dirty"), true); err != nil {
		t.Fatal(err)
	}
	fail := errors.New("device failed")
	n, err := c.Fill([]int{2}, 5, 0, 0, func(buf []byte) error {
		copy(buf, "junk!")
		return fail
	})
	if n != 0 || !errors.Is(err, fail) {
		t.Fatalf("Fill = %d, %v; want 0 and the filler's error", n, err)
	}
	if c.Contains(2) || !c.Contains(1) || writebacks != 0 || c.DirtyCount() != 1 {
		t.Fatalf("after a failed fill: 2 cached %v, 1 cached %v, %d writebacks, %d dirty",
			c.Contains(2), c.Contains(1), writebacks, c.DirtyCount())
	}
}

// TestFillKeepsAnEntryThatArrivedFirst: a key cached while its fill was
// reading may be newer than what the fill read, so it wins.
func TestFillKeepsAnEntryThatArrivedFirst(t *testing.T) {
	c := newDelayed(t, 2, func(int, []byte) error { return nil })
	n, err := c.Fill([]int{1}, 3, 0, 0, func(buf []byte) error {
		copy(buf, "old")
		return c.Put(1, []byte("new"), true)
	})
	if err != nil || n != 0 {
		t.Fatalf("Fill = %d, %v; want 0 installed", n, err)
	}
	if got, _ := c.Get(1); string(got) != "new" || c.DirtyCount() != 1 || c.Len() != 1 {
		t.Fatalf("Get(1) = %q, %d dirty, Len %d; want the Put's dirty bytes alone", got, c.DirtyCount(), c.Len())
	}
}

// TestFillReusesEvictedBuffers: in steady state a one-key fill lands in a
// buffer an earlier fill's eviction freed, so a stream of misses allocates
// nothing — neither buffers nor entries.
func TestFillReusesEvictedBuffers(t *testing.T) {
	c := newDelayed(t, 8, func(int, []byte) error { return nil })
	key := 0
	fill := func() {
		key++
		if _, err := c.Fill([]int{key}, 8192, 0, 0, func(buf []byte) error {
			buf[0] = byte(key)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		fill()
	}
	if allocs := testing.AllocsPerRun(200, fill); allocs != 0 {
		t.Fatalf("a warm one-key fill allocates %.1f objects, want 0", allocs)
	}
	if got, ok := c.Get(key); !ok || got[0] != byte(key) || c.Len() != 8 {
		t.Fatalf("last fill: cached %v, first byte %d; Len %d", ok, got[0], c.Len())
	}
}
