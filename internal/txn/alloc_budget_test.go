package txn_test

// External test package: the rig is core.New, which imports txn.

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/txn"
)

// The commit these tests and benchmarks repeat is the repository benchmark's
// txn_commit operation below the agent: two records of one record-locked
// file; every other transaction's pair shares a block.
const commitRecSize, commitRecords = 256, 64

// commitRig builds a one-disk facility around rec (nil: no recorder) and
// commits files record-locked files of commitRecords records each.
func commitRig(tb testing.TB, rec *obs.Recorder, files int) (*core.Cluster, []txn.FileID) {
	tb.Helper()
	fac, err := core.New(core.Config{Disks: 1, Obs: rec})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = fac.Close() })
	svc := fac.Txns
	fids := make([]txn.FileID, files)
	for f := range fids {
		id, err := svc.Begin(0)
		if err != nil {
			tb.Fatal(err)
		}
		if fids[f], err = svc.Create(id, fit.Attributes{Locking: fit.LockRecord}); err != nil {
			tb.Fatal(err)
		}
		if _, err := svc.PWrite(id, fids[f], 0, make([]byte, commitRecords*commitRecSize)); err != nil {
			tb.Fatal(err)
		}
		if err := svc.End(id); err != nil {
			tb.Fatal(err)
		}
	}
	return fac, fids
}

// commitTwoRecords is the i-th commit against fid: read record a for
// update, then rewrite it and record c. An even i pairs a with its
// neighbour in the same 8 KiB block, an odd one with a record in the other
// block.
func commitTwoRecords(svc *txn.Service, fid txn.FileID, i int, payload []byte) error {
	id, err := svc.Begin(1)
	if err != nil {
		return err
	}
	if err := svc.Open(id, fid, fit.LockRecord); err != nil {
		return err
	}
	a, c := i%commitRecords, (i+1+i%2*31)%commitRecords
	if _, err := svc.PRead(id, fid, int64(a*commitRecSize), commitRecSize, true); err != nil {
		return err
	}
	for _, rec := range []int{a, c} {
		if _, err := svc.PWrite(id, fid, int64(rec*commitRecSize), payload); err != nil {
			return err
		}
	}
	return svc.End(id)
}

// recorders are the three ways a facility is observed: not at all, by the
// sampling default rhodosd installs, and with a span tree for every op —
// with the allocation budget of one commit under each that has one.
var recorders = []struct {
	name           string
	new            func() *obs.Recorder
	bytes, objects int64
}{
	{"none", func() *obs.Recorder { return nil }, 0, 0},
	{"default", func() *obs.Recorder { return obs.New() }, 352, 2},                         // measured 306 B/op in 1 object
	{"every-op", func() *obs.Recorder { return obs.New(obs.WithSampleRate(1)) }, 2961, 12}, // measured 2 574 B/op in 10 objects
}

// TestCommitAllocBudget pins bytes and objects per commit with a recorder
// installed, at what was measured + 15 % (rounded up). The one object a warm
// commit allocates with the sampled default is the record PRead returns;
// the tree one time in 64 adds the rest of the bytes. Before finished
// transactions left their state, views, intentions list and intention bytes
// to the next Begin, group commit reused its batches, and the read view
// read straight into the buffer it returns, the same commit allocated
// 2 890 B in 23 objects (default) and 5 158 B in 32 (every op): the state
// and its two maps and list, each open's view, the released map, finish's
// copies, the list's records and a copy of each write's bytes, the copy of
// the whole list, the update list and its size encodings, a batch and its
// channel, the file service's read buffer and the ancestry slice, and each
// close's block-key list. Before it kept the update list it logged in place
// of a second copy of its intentions, 2 714 B in 24 objects (default) and
// 4 982 B in 33 (every op). The sampled default sheds the spans: its commit
// allocates what one with no recorder does, plus a tree one time in 64.
// While each record flushed its
// block and the lock manager built its items and holds afresh, the same
// commit allocated 3 002 B in 32 objects (default) and 5 270 B in 41 (every
// op); before the commit path lent its buffers, 25 708 B in 67 without the
// read.
func TestCommitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the code's under the race detector")
	}
	for _, r := range recorders {
		if r.bytes == 0 {
			continue
		}
		t.Run("recorder="+r.name, func(t *testing.T) {
			fac, fids := commitRig(t, r.new(), 1)
			payload := make([]byte, commitRecSize)
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := commitTwoRecords(fac.Txns, fids[0], i, payload); err != nil {
						b.Fatal(err)
					}
				}
			})
			if got := res.AllocedBytesPerOp(); got > r.bytes {
				t.Errorf("two-record commit allocates %d B/op, budget %d", got, r.bytes)
			}
			if got := res.AllocsPerOp(); got > r.objects {
				t.Errorf("two-record commit allocates %d objects/op, budget %d", got, r.objects)
			}
			t.Logf("two-record commit: %d B/op in %d objects (%d ns/op)", res.AllocedBytesPerOp(), res.AllocsPerOp(), res.NsPerOp())
		})
	}
}

// TestCommitPageAllocBudget pins bytes and objects per one-page commit of a
// page-locked file (BenchmarkCommitPageUpdate's operation, on the facility
// core.New builds, sampling recorder) at what was measured + 15 %, rounded
// up. The page a page-mode write builds is the transaction state's page
// buffer, reused with the state; the intentions list and the shadow stage
// copy it. While each write built its page afresh the same commit
// allocated 8 391 B in 2 objects (BenchmarkCommitPageUpdate, with no
// recorder: 8 232 B in 2 then, 40 B in 1 now).
func TestCommitPageAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the code's under the race detector")
	}
	const blocks, budgetBytes, budgetObjects = 32, 229, 2 // measured 199 B/op in 1 object
	fac, err := core.New(core.Config{Disks: 1, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fac.Close() })
	svc := fac.Txns
	id, err := svc.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	fid, err := svc.Create(id, fit.Attributes{Locking: fit.LockPage})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.PWrite(id, fid, 0, make([]byte, blocks*fileservice.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := svc.End(id); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, fileservice.BlockSize)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			id, err := svc.Begin(1)
			if err == nil {
				err = svc.Open(id, fid, fit.LockPage)
			}
			if err == nil {
				_, err = svc.PWrite(id, fid, int64(i%blocks)*fileservice.BlockSize, payload)
			}
			if err == nil {
				err = svc.End(id)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got > budgetBytes {
		t.Errorf("one-page commit allocates %d B/op, budget %d", got, budgetBytes)
	}
	if got := res.AllocsPerOp(); got > budgetObjects {
		t.Errorf("one-page commit allocates %d objects/op, budget %d", got, budgetObjects)
	}
	t.Logf("one-page commit: %d B/op in %d objects (%d ns/op)", res.AllocedBytesPerOp(), res.AllocsPerOp(), res.NsPerOp())
}

// TestCommitWriteBudget: a commit writes each block it changed once and no
// FIT. Half the pairs share a block, so the commits average 1.5 device
// writes; the only stable write is the log's sync, none deferred. Before
// the commit's in-place pass ran per file, each record flushed its block
// and the FIT was rewritten for the per-use service flip and the read's
// last-read stamp: 3 device writes and 2 stable writes per commit.
// TestPReadAllocBudget: a read inside a transaction allocates one object,
// the bytes it returns. The view is read straight into that buffer and
// overlaid in place; before, the file service's read allocated a second
// buffer the view was copied from, and each read built its ancestry slice.
func TestPReadAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the code's under the race detector")
	}
	fac, fids := commitRig(t, obs.New(), 1)
	svc := fac.Txns
	id, err := svc.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Open(id, fids[0], fit.LockRecord); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.PWrite(id, fids[0], commitRecSize, make([]byte, commitRecSize)); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		// Records 0 to 2, the middle one under this transaction's own write.
		if _, err := svc.PRead(id, fids[0], int64(i%3*commitRecSize), commitRecSize, true); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 1 {
		t.Errorf("a PRead in a transaction allocates %v objects, want 1 (the bytes it returns)", allocs)
	}
	if err := svc.End(id); err != nil {
		t.Fatal(err)
	}
}

func TestCommitWriteBudget(t *testing.T) {
	const commits = 200 // the log stays under half full: no checkpoint flush
	fac, fids := commitRig(t, nil, 1)
	payload := make([]byte, commitRecSize)
	if err := fac.Flush(); err != nil { // drains the seeding's deferred stable writes
		t.Fatal(err)
	}
	met := fac.Metrics
	refs0, stable0, syncs0 := met.Get(metrics.DiskReferences), met.Get(metrics.StableWrites), met.Get(metrics.WalSyncs)
	for i := 0; i < commits; i++ {
		if err := commitTwoRecords(fac.Txns, fids[0], i, payload); err != nil {
			t.Fatal(err)
		}
	}
	refs, stable, syncs := met.Get(metrics.DiskReferences)-refs0, met.Get(metrics.StableWrites)-stable0, met.Get(metrics.WalSyncs)-syncs0
	if want := int64(commits * 3 / 2); refs != want {
		t.Errorf("%d commits made %d device references, want %d: each changed block once, no FIT", commits, refs, want)
	}
	if syncs != commits || stable != syncs {
		t.Errorf("%d commits made %d stable writes for %d log syncs, want one sync per commit and nothing else", commits, stable, syncs)
	}
}

// TestCommitCountsIndependentOfSampling: every op is counted whatever the
// sample rate. The same commits under "every op", the default and "never
// sample" leave identical per-layer counts and virtual times — group commit's
// group-sync and the device's references included, which used to observe
// only under a tree. What the default pays for wall timing is the commit's
// four txn roots and a sample of the rest: at most 5 timed brackets per
// commit, where timing every op took 14.
func TestCommitCountsIndependentOfSampling(t *testing.T) {
	const commits = 300
	wallCount := func(p *obs.Profile) (n int64) {
		for _, ls := range p.Layers {
			if ls.Wall != nil {
				n += ls.Wall.Count
			}
		}
		return n
	}
	// exact is what every op records, so no sample rate may change it.
	type exact struct{ count, virtSum, virtP50, virtP99 int64 }
	// counts returns each layer's exact columns over the rig's life and the
	// brackets wall-timed per commit.
	counts := func(rec *obs.Recorder) (map[string]exact, float64) {
		fac, fids := commitRig(t, rec, 1)
		payload := make([]byte, commitRecSize)
		timed0 := wallCount(rec.Profile())
		for i := 0; i < commits; i++ {
			if err := commitTwoRecords(fac.Txns, fids[0], i, payload); err != nil {
				t.Fatal(err)
			}
		}
		p := rec.Profile()
		out := map[string]exact{}
		for _, ls := range p.Layers {
			var virtSum int64
			if ls.Virt != nil { // an empty histogram exports none
				virtSum = ls.Virt.SumNS
			}
			out[ls.Layer] = exact{ls.Count, virtSum, ls.VirtP50NS, ls.VirtP99NS}
		}
		return out, float64(wallCount(p)-timed0) / commits
	}
	every, def, never := obs.New(obs.WithSampleRate(1)), obs.New(), obs.New(obs.WithSampleRate(0))
	want, everyTimed := counts(every)
	if want["txn"].count < 4*commits || want["device"].count < 3*commits/2 || want["lock"].count < 2*commits || want["device"].virtSum == 0 {
		t.Fatalf("every-op counts %v: the commits did not cross the layers expected", want)
	}
	for _, c := range []struct {
		name string
		rec  *obs.Recorder
	}{{"default", def}, {"never", never}} {
		got, timed := counts(c.rec)
		for layer, w := range want {
			if g := got[layer]; g != w {
				t.Errorf("recorder=%s: layer %s counted %d ops (virtual sum, p50, p99 %d, %d, %d ns), every-op %d (%d, %d, %d ns)",
					c.name, layer, g.count, g.virtSum, g.virtP50, g.virtP99, w.count, w.virtSum, w.virtP50, w.virtP99)
			}
		}
		t.Logf("recorder=%s: %.2f wall-timed brackets per commit (every-op %.2f)", c.name, timed, everyTimed)
		if c.rec == def && timed > 5 {
			t.Errorf("recorder=default: %.2f wall-timed brackets per commit, want at most 5", timed)
		}
	}
	if trees := never.Profile().Trees; trees != 0 {
		t.Errorf("the never-sample recorder built %d trees", trees)
	}
	if trees := every.Profile().Trees; trees < 3*commits { // the pread, two pwrites and the end
		t.Errorf("the every-op recorder built %d trees for %d commits", trees, commits)
	}
}

// BenchmarkCommitRecordUpdate prints what a recorder costs a commit: the
// same commit with none, with the sampling default and with every op traced.
func BenchmarkCommitRecordUpdate(b *testing.B) {
	for _, r := range recorders {
		b.Run("recorder="+r.name, func(b *testing.B) {
			fac, fids := commitRig(b, r.new(), 1)
			payload := make([]byte, commitRecSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := commitTwoRecords(fac.Txns, fids[0], i, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCommitRecordUpdateCommitters runs the commit from one and from two
// goroutines, each on its own file, and reports the distribution per commit —
// the mean far above the median is a committer that lost one of the path's
// process-wide mutexes and waited to be rescheduled (EXPERIMENTS.md, "Tracing
// budget before/after", has the scheduler-latency recipe that goes with it).
func BenchmarkCommitRecordUpdateCommitters(b *testing.B) {
	for _, committers := range []int{1, 2} {
		b.Run(fmt.Sprintf("committers=%d", committers), func(b *testing.B) {
			fac, fids := commitRig(b, obs.New(), committers)
			lat := make([][]time.Duration, committers)
			errs := make([]error, committers)
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < committers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					payload := make([]byte, commitRecSize)
					n := b.N / committers
					lat[c] = make([]time.Duration, 0, n)
					for i := 0; i < n && errs[c] == nil; i++ {
						t0 := time.Now()
						errs[c] = commitTwoRecords(fac.Txns, fids[c], i, payload)
						lat[c] = append(lat[c], time.Since(t0))
					}
				}(c)
			}
			wg.Wait()
			b.StopTimer()
			var all []time.Duration
			var sum time.Duration
			for c, l := range lat {
				if errs[c] != nil {
					b.Fatal(errs[c])
				}
				all = append(all, l...)
				for _, d := range l {
					sum += d
				}
			}
			if len(all) == 0 {
				return
			}
			sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
			b.ReportMetric(float64(sum.Nanoseconds())/float64(len(all)), "mean-ns/commit")
			b.ReportMetric(float64(all[len(all)/2].Nanoseconds()), "p50-ns/commit")
			b.ReportMetric(float64(all[len(all)*99/100].Nanoseconds()), "p99-ns/commit")
			b.ReportMetric(float64(len(all))/b.Elapsed().Seconds(), "commits/s")
		})
	}
}
