package freespace

import (
	"math/rand"
	"testing"
)

// fragment the map: allocate everything, free scattered short runs.
func fragmented(b *testing.B, capacity int) *Map {
	b.Helper()
	m, err := NewMap(capacity)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Allocate(capacity); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for f := 0; f+8 < capacity; f += 24 {
		if err := m.Free(f, 4+rng.Intn(4)); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

func BenchmarkAllocateRunTable(b *testing.B) {
	m := fragmented(b, 256*1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr, err := m.Allocate(4)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := m.Free(addr, 4); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func BenchmarkAllocateFirstFit(b *testing.B) {
	m := fragmented(b, 256*1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr, err := m.AllocateFirstFit(4)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := m.Free(addr, 4); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkFreeCoalesce frees 8 fragments and coalesces them with their
// neighbours: on a full disk the neighbours are allocated, and with a free
// tail (a 256 MB disk, the daemon's, with only its head in use) the upper
// neighbour is most of the disk.
func BenchmarkFreeCoalesce(b *testing.B) {
	b.Run("neighbours=allocated", func(b *testing.B) {
		m, err := NewMap(1 << 20)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Allocate(1 << 20); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := (i * 16) % ((1 << 20) - 16)
			if err := m.Free(f, 8); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := m.AllocateAt(f, 8); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
	b.Run("neighbours=free-tail", func(b *testing.B) {
		const capacity, head = 256 << 20 >> 11, 2000
		m, err := NewMap(capacity)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.AllocateAt(0, head); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		const f = head - 8
		for i := 0; i < b.N; i++ {
			if err := m.Free(f, 8); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := m.AllocateAt(f, 8); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
}
