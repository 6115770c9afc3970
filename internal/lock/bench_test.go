package lock

import (
	"context"
	"testing"
	"time"
)

func benchManager(b *testing.B, combined bool) *Manager {
	b.Helper()
	m := New(Config{LT: time.Hour, MaxRenewals: 100, Combined: combined})
	b.Cleanup(m.Close)
	return m
}

func BenchmarkAcquireReleaseUncontended(b *testing.B) {
	m := benchManager(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := TxnID(i + 1)
		if err := m.Acquire(context.Background(), txn, 0, Page, ItemID{File: 1, Offset: uint64(i % 64)}, IWrite); err != nil {
			b.Fatal(err)
		}
		m.ReleaseAll(txn)
	}
}

func BenchmarkAcquireSharedReadOnly(b *testing.B) {
	m := benchManager(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Acquire(context.Background(), TxnID(i+1), 0, File, ItemID{File: 7}, ReadOnly); err != nil {
			b.Fatal(err)
		}
		if i%256 == 255 {
			b.StopTimer()
			for j := i - 255; j <= i; j++ {
				m.ReleaseAll(TxnID(j + 1))
			}
			b.StartTimer()
		}
	}
}

func BenchmarkSearchInPopulatedTable(b *testing.B) {
	for _, tc := range []struct {
		name     string
		combined bool
	}{{"split", false}, {"combined", true}} {
		b.Run(tc.name, func(b *testing.B) {
			m := benchManager(b, tc.combined)
			for i := 0; i < 500; i++ {
				if err := m.Acquire(context.Background(), 1, 0, Record, ItemID{File: uint64(1000 + i), Offset: 0, Length: 10}, ReadOnly); err != nil {
					b.Fatal(err)
				}
				if err := m.Acquire(context.Background(), 1, 0, Page, ItemID{File: uint64(2000 + i), Offset: 0}, ReadOnly); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ok, err := m.TryAcquire(2, 0, Page, ItemID{File: uint64(2000 + i%500), Offset: 1}, ReadOnly)
				if err != nil || !ok {
					b.Fatal(err)
				}
			}
		})
	}
}
