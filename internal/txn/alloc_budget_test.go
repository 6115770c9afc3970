package txn_test

// External test package: the rig is core.New, which imports txn.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fit"
	"repro/internal/obs"
)

// Budgets for one two-record commit with a recorder installed — the shape of
// the repository benchmark's txn_commit operation below the agent: measured
// value + 15 %. Before the commit path lent its buffers the same commit
// allocated 25 708 B (a private 8 KiB copy of the block per record flushed)
// in 67 objects.
const (
	commitAllocBytesBudget   = 4570 // measured 3 974 B/op
	commitAllocObjectsBudget = 39   // measured 34 allocs/op
)

func TestCommitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the code's under the race detector")
	}
	fac, err := core.New(core.Config{Disks: 1, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer fac.Close()
	svc := fac.Txns
	const recSize, records = 256, 64
	id, err := svc.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	fid, err := svc.Create(id, fit.Attributes{Locking: fit.LockRecord})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.PWrite(id, fid, 0, make([]byte, records*recSize)); err != nil {
		t.Fatal(err)
	}
	if err := svc.End(id); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, recSize)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			id, err := svc.Begin(1)
			if err != nil {
				b.Fatal(err)
			}
			if err := svc.Open(id, fid, fit.LockRecord); err != nil {
				b.Fatal(err)
			}
			// Two records of one file; every other transaction's pair shares
			// a block, as in txn_commit.
			a, c := i%records, (i+1+i%2*31)%records
			for _, rec := range []int{a, c} {
				if _, err := svc.PWrite(id, fid, int64(rec*recSize), payload); err != nil {
					b.Fatal(err)
				}
			}
			if err := svc.End(id); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got > commitAllocBytesBudget {
		t.Errorf("two-record commit allocates %d B/op, budget %d", got, commitAllocBytesBudget)
	}
	if got := res.AllocsPerOp(); got > commitAllocObjectsBudget {
		t.Errorf("two-record commit allocates %d objects/op, budget %d", got, commitAllocObjectsBudget)
	}
	t.Logf("two-record commit: %d B/op in %d objects (%d ns/op)", res.AllocedBytesPerOp(), res.AllocsPerOp(), res.NsPerOp())
}
