package fit

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func sampleTable() *Table {
	return &Table{
		Attr: Attributes{
			Size:       123456,
			Created:    time.Unix(1000, 500),
			LastRead:   time.Unix(2000, 700),
			RefCount:   3,
			Service:    ServiceTransaction,
			Locking:    LockPage,
			ExtraSpace: 64,
		},
		Direct: []Extent{
			{Disk: 0, Addr: 100, Count: 4},
			{Disk: 1, Addr: 200, Count: 1},
		},
		Indirect: []Extent{{Disk: 0, Addr: 900, Count: 1}},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := sampleTable()
	buf, err := want.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != FragmentSize {
		t.Fatalf("encoded table is %d bytes, want one fragment (%d)", len(buf), FragmentSize)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Attr.Size != want.Attr.Size ||
		!got.Attr.Created.Equal(want.Attr.Created) ||
		!got.Attr.LastRead.Equal(want.Attr.LastRead) ||
		got.Attr.RefCount != want.Attr.RefCount ||
		got.Attr.Service != want.Attr.Service ||
		got.Attr.Locking != want.Attr.Locking ||
		got.Attr.ExtraSpace != want.Attr.ExtraSpace {
		t.Fatalf("attributes differ: got %+v want %+v", got.Attr, want.Attr)
	}
	if len(got.Direct) != 2 || got.Direct[0] != want.Direct[0] || got.Direct[1] != want.Direct[1] {
		t.Fatalf("direct extents differ: %+v", got.Direct)
	}
	if len(got.Indirect) != 1 || got.Indirect[0] != want.Indirect[0] {
		t.Fatalf("indirect pointers differ: %+v", got.Indirect)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	buf, err := sampleTable().Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Flip a data byte: CRC must catch it.
	buf[50] ^= 0xFF
	if _, err := Decode(buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode of corrupted table = %v, want ErrCorrupt", err)
	}
	buf[50] ^= 0xFF
	if _, err := Decode(buf); err != nil {
		t.Fatalf("Decode after un-flip: %v", err)
	}
	// Wrong size.
	if _, err := Decode(buf[:100]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode of short buffer = %v, want ErrCorrupt", err)
	}
	// Bad magic.
	var zero [FragmentSize]byte
	if _, err := Decode(zero[:]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode of zero fragment = %v, want ErrCorrupt", err)
	}
}

func TestEncodeLimits(t *testing.T) {
	tbl := &Table{Direct: make([]Extent, MaxDirectExtents+1)}
	if _, err := tbl.Encode(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Encode with too many direct extents = %v, want ErrTooLarge", err)
	}
	tbl = &Table{Indirect: make([]Extent, MaxIndirectPtrs+1)}
	if _, err := tbl.Encode(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Encode with too many indirect pointers = %v, want ErrTooLarge", err)
	}
	// Exactly at the limits must fit in one fragment.
	tbl = &Table{
		Direct:   make([]Extent, MaxDirectExtents),
		Indirect: make([]Extent, MaxIndirectPtrs),
	}
	for i := range tbl.Direct {
		tbl.Direct[i] = Extent{Addr: uint32(i), Count: 1}
	}
	buf, err := tbl.Encode()
	if err != nil {
		t.Fatalf("Encode at limits: %v", err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode at limits: %v", err)
	}
	if len(got.Direct) != MaxDirectExtents || len(got.Indirect) != MaxIndirectPtrs {
		t.Fatal("extent counts lost at limits")
	}
}

func TestDirectAreaCoversHalfMegabyte(t *testing.T) {
	// The design guarantee (§5, §7): 64 direct descriptors × ≥1 block each
	// ⇒ at least 512 KB directly accessible.
	if MaxDirectExtents*BlockSize < 512*1024 {
		t.Fatalf("direct area covers %d bytes, want >= 512KB", MaxDirectExtents*BlockSize)
	}
}

func TestIndirectRoundTrip(t *testing.T) {
	extents := []Extent{{Disk: 2, Addr: 10, Count: 7}, {Disk: 0, Addr: 500, Count: 1}}
	buf, err := EncodeIndirect(extents)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != BlockSize {
		t.Fatalf("indirect block is %d bytes, want %d", len(buf), BlockSize)
	}
	got, err := DecodeIndirect(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != extents[0] || got[1] != extents[1] {
		t.Fatalf("indirect round trip = %+v", got)
	}
}

func TestIndirectLimits(t *testing.T) {
	if _, err := EncodeIndirect(make([]Extent, ExtentsPerIndirectBlock+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatal("oversized indirect block accepted")
	}
	if _, err := DecodeIndirect(make([]byte, 10)); !errors.Is(err, ErrCorrupt) {
		t.Fatal("short indirect block accepted")
	}
	if _, err := DecodeIndirect(make([]byte, BlockSize)); !errors.Is(err, ErrCorrupt) {
		t.Fatal("zero indirect block accepted")
	}
}

func TestExtentMapLookup(t *testing.T) {
	m := NewExtentMap([]Extent{
		{Disk: 0, Addr: 100, Count: 4}, // logical blocks 0-3
		{Disk: 1, Addr: 40, Count: 2},  // logical blocks 4-5
	})
	if m.TotalBlocks() != 6 {
		t.Fatalf("TotalBlocks = %d, want 6", m.TotalBlocks())
	}
	cases := []struct {
		blk        int
		disk       uint16
		addr       uint32
		contiguous int
	}{
		{0, 0, 100, 4},
		{2, 0, 108, 2}, // 2 blocks into the extent: addr advances 2*4 frags
		{3, 0, 112, 1},
		{4, 1, 40, 2},
		{5, 1, 44, 1},
	}
	for _, c := range cases {
		disk, addr, contiguous, ok := m.Lookup(c.blk)
		if !ok {
			t.Fatalf("Lookup(%d) not found", c.blk)
		}
		if disk != c.disk || addr != c.addr || contiguous != c.contiguous {
			t.Fatalf("Lookup(%d) = disk %d addr %d contig %d, want %d/%d/%d",
				c.blk, disk, addr, contiguous, c.disk, c.addr, c.contiguous)
		}
	}
	if _, _, _, ok := m.Lookup(6); ok {
		t.Fatal("Lookup past end succeeded")
	}
	if _, _, _, ok := m.Lookup(-1); ok {
		t.Fatal("Lookup(-1) succeeded")
	}
}

func TestExtentMapMergesContiguousAppends(t *testing.T) {
	m := NewExtentMap(nil)
	m.Append(Extent{Disk: 0, Addr: 100, Count: 2})
	m.Append(Extent{Disk: 0, Addr: 108, Count: 3}) // physically adjacent (2 blocks * 4 frags)
	if got := len(m.Extents()); got != 1 {
		t.Fatalf("adjacent extents not merged: %d extents", got)
	}
	if m.Extents()[0].Count != 5 {
		t.Fatalf("merged count = %d, want 5", m.Extents()[0].Count)
	}
	// Different disk: no merge.
	m.Append(Extent{Disk: 1, Addr: 128, Count: 1})
	if got := len(m.Extents()); got != 2 {
		t.Fatalf("cross-disk extents merged: %d extents", got)
	}
	// Non-adjacent: no merge.
	m.Append(Extent{Disk: 1, Addr: 999, Count: 1})
	if got := len(m.Extents()); got != 3 {
		t.Fatalf("non-adjacent extents merged: %d extents", got)
	}
}

func TestExtentMapMergeRespectsMaxCount(t *testing.T) {
	m := NewExtentMap(nil)
	m.Append(Extent{Disk: 0, Addr: 0, Count: MaxCount})
	m.Append(Extent{Disk: 0, Addr: uint32(MaxCount) * 4, Count: 1})
	if got := len(m.Extents()); got != 2 {
		t.Fatalf("merge overflowed the two-byte count: %d extents", got)
	}
}

func TestExtentMapZeroCountAppendIgnored(t *testing.T) {
	m := NewExtentMap(nil)
	m.Append(Extent{Count: 0})
	if m.TotalBlocks() != 0 || len(m.Extents()) != 0 {
		t.Fatal("zero-count extent was recorded")
	}
}

func TestExtentMapTruncate(t *testing.T) {
	m := NewExtentMap([]Extent{
		{Disk: 0, Addr: 100, Count: 4},
		{Disk: 1, Addr: 40, Count: 2},
	})
	freed := m.TruncateBlocks(3)
	if m.TotalBlocks() != 3 {
		t.Fatalf("TotalBlocks after truncate = %d, want 3", m.TotalBlocks())
	}
	// Freed: all of extent 2 and the last block of extent 1.
	wantFreed := map[Extent]bool{
		{Disk: 1, Addr: 40, Count: 2}:  true,
		{Disk: 0, Addr: 112, Count: 1}: true,
	}
	if len(freed) != 2 {
		t.Fatalf("freed = %+v, want 2 extents", freed)
	}
	for _, e := range freed {
		if !wantFreed[e] {
			t.Fatalf("unexpected freed extent %+v", e)
		}
	}
	// Lookups past the new end fail; before it still work.
	if _, _, _, ok := m.Lookup(3); ok {
		t.Fatal("Lookup past truncation succeeded")
	}
	if _, addr, _, ok := m.Lookup(2); !ok || addr != 108 {
		t.Fatalf("Lookup(2) after truncate = %d,%v", addr, ok)
	}
}

func TestExtentMapTruncateToZeroAndNoop(t *testing.T) {
	m := NewExtentMap([]Extent{{Disk: 0, Addr: 100, Count: 2}})
	if freed := m.TruncateBlocks(5); freed != nil {
		t.Fatalf("truncate beyond end freed %+v", freed)
	}
	freed := m.TruncateBlocks(0)
	if m.TotalBlocks() != 0 {
		t.Fatalf("TotalBlocks = %d, want 0", m.TotalBlocks())
	}
	if len(freed) != 1 || freed[0] != (Extent{Disk: 0, Addr: 100, Count: 2}) {
		t.Fatalf("freed = %+v", freed)
	}
}

func TestSplit(t *testing.T) {
	m := NewExtentMap(nil)
	for i := 0; i < MaxDirectExtents+5; i++ {
		// Spread across disks so nothing merges.
		m.Append(Extent{Disk: uint16(i % 2), Addr: uint32(i * 100), Count: 1})
	}
	direct, overflow := m.Split()
	if len(direct) != MaxDirectExtents || len(overflow) != 5 {
		t.Fatalf("Split = %d direct, %d overflow; want %d and 5",
			len(direct), len(overflow), MaxDirectExtents)
	}
	m2 := NewExtentMap([]Extent{{Addr: 1, Count: 1}})
	d2, o2 := m2.Split()
	if len(d2) != 1 || o2 != nil {
		t.Fatalf("small Split = %d direct, %v overflow", len(d2), o2)
	}
}

func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl := &Table{
			Attr: Attributes{
				Size:       rng.Uint64(),
				Created:    time.Unix(rng.Int63n(1<<33), rng.Int63n(1e9)),
				LastRead:   time.Unix(rng.Int63n(1<<33), rng.Int63n(1e9)),
				RefCount:   rng.Uint32(),
				Service:    ServiceType(1 + rng.Intn(2)),
				Locking:    LockLevel(rng.Intn(4)),
				ExtraSpace: rng.Uint32(),
			},
		}
		for i := 0; i < rng.Intn(MaxDirectExtents+1); i++ {
			tbl.Direct = append(tbl.Direct, Extent{
				Disk:  uint16(rng.Intn(8)),
				Addr:  rng.Uint32(),
				Count: uint16(1 + rng.Intn(MaxCount)),
			})
		}
		for i := 0; i < rng.Intn(MaxIndirectPtrs+1); i++ {
			tbl.Indirect = append(tbl.Indirect, Extent{
				Disk: uint16(rng.Intn(8)), Addr: rng.Uint32(), Count: 1,
			})
		}
		buf, err := tbl.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(buf)
		if err != nil {
			return false
		}
		if got.Attr.Size != tbl.Attr.Size || !got.Attr.Created.Equal(tbl.Attr.Created) ||
			got.Attr.Service != tbl.Attr.Service || got.Attr.Locking != tbl.Attr.Locking {
			return false
		}
		if len(got.Direct) != len(tbl.Direct) || len(got.Indirect) != len(tbl.Indirect) {
			return false
		}
		for i := range tbl.Direct {
			if got.Direct[i] != tbl.Direct[i] {
				return false
			}
		}
		for i := range tbl.Indirect {
			if got.Indirect[i] != tbl.Indirect[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickExtentMapLookupConsistency: for random extent lists, every
// logical block must resolve, contiguity runs must never exceed the extent
// end, and the address arithmetic must be consistent with a brute-force
// walk.
func TestQuickExtentMapLookupConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var extents []Extent
		// Non-overlapping, non-adjacent extents on alternating disks.
		addr := uint32(0)
		for i := 0; i < 1+rng.Intn(20); i++ {
			count := uint16(1 + rng.Intn(10))
			extents = append(extents, Extent{
				Disk:  uint16(i % 3),
				Addr:  addr,
				Count: count,
			})
			addr += uint32(count)*4 + uint32(1+rng.Intn(5))*4 // gap avoids merges
		}
		m := NewExtentMap(extents)
		// Brute-force expected mapping.
		blk := 0
		for _, e := range extents {
			for w := 0; w < int(e.Count); w++ {
				disk, a, contig, ok := m.Lookup(blk)
				if !ok {
					return false
				}
				if disk != e.Disk || a != e.Addr+uint32(w)*4 {
					return false
				}
				if contig != int(e.Count)-w {
					return false
				}
				blk++
			}
		}
		return m.TotalBlocks() == blk
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEnumStrings(t *testing.T) {
	if ServiceBasic.String() != "basic" || ServiceTransaction.String() != "transaction" {
		t.Fatal("ServiceType strings wrong")
	}
	if LockRecord.String() != "record" || LockPage.String() != "page" || LockFile.String() != "file" || LockNone.String() != "none" {
		t.Fatal("LockLevel strings wrong")
	}
}

// FuzzDecodeFIT feeds arbitrary bytes to both decoders, as a mount does
// with whatever the drive hands back: neither may panic, and a table or an
// indirect block either accepts re-encodes to bytes that decode the same.
func FuzzDecodeFIT(f *testing.F) {
	atLimits := &Table{Direct: make([]Extent, MaxDirectExtents), Indirect: make([]Extent, MaxIndirectPtrs)}
	for i := range atLimits.Direct {
		atLimits.Direct[i] = Extent{Addr: uint32(i), Count: 1}
	}
	for _, tbl := range []*Table{sampleTable(), atLimits, {}} {
		buf, err := tbl.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	ind, err := EncodeIndirect([]Extent{{Disk: 2, Addr: 10, Count: 7}, {Disk: 0, Addr: 500, Count: 1}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ind)
	f.Add(make([]byte, FragmentSize))
	f.Add(make([]byte, BlockSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		if tbl, err := Decode(data); err == nil {
			buf, err := tbl.Encode()
			if err != nil {
				t.Fatalf("an accepted table does not re-encode: %v", err)
			}
			again, err := Decode(buf)
			if err != nil {
				t.Fatalf("a re-encoded table does not decode: %v", err)
			}
			if !reflect.DeepEqual(again, tbl) {
				t.Fatalf("re-encoded table decodes to %+v, want %+v", again, tbl)
			}
		}
		if exts, err := DecodeIndirect(data); err == nil {
			buf, err := EncodeIndirect(exts)
			if err != nil {
				t.Fatalf("an accepted indirect block does not re-encode: %v", err)
			}
			again, err := DecodeIndirect(buf)
			if err != nil || !reflect.DeepEqual(again, exts) {
				t.Fatalf("re-encoded indirect block decodes to %v, %v; want %v", again, err, exts)
			}
		}
	})
}
