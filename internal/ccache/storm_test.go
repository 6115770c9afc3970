package ccache_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ccache"
)

// TestRecallStormConvergence is the package-level mirror of the E23
// recall-storm cell: one writer pushing rounds of conflicting writes
// through a population of hot readers. It regression-pins two bugs the
// cell originally flushed out: a recall deleting an empty file state
// let an in-flight grant reinstall under a reused epoch (stale lease),
// and hot re-acquires livelocked a writer's recall round until the
// deadline broke the whole population.
func TestRecallStormConvergence(t *testing.T) {
	r := newRig(t, nil)
	f := r.create("/storm")
	seed := make([]byte, 64<<10)
	if _, err := r.core.Files.WriteAt(f, 0, seed); err != nil {
		t.Fatal(err)
	}
	writer, _ := r.client(1)
	const readers = 7
	ccs := make([]*ccache.Client, readers)
	for i := range ccs {
		ccs[i], _ = r.client(uint64(10 + i))
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make([]error, readers)
	var readOps atomic.Int64
	for i, cc := range ccs {
		wg.Add(1)
		go func(i int, cc *ccache.Client) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for j := 0; j < 25; j++ {
					if _, err := cc.ReadAt(f, int64(j%16)*2048, 4096); err != nil {
						errs[i] = err
						return
					}
					readOps.Add(1)
				}
			}
		}(i, cc)
	}
	const rounds = 40
	buf := make([]byte, 4096)
	for round := 0; round < rounds; round++ {
		for i := range buf {
			buf[i] = byte(round + i)
		}
		if _, err := writer.WriteAt(f, 0, buf); err != nil {
			t.Fatalf("writer round %d: %v", round, err)
		}
		if err := writer.FlushFile(f); err != nil {
			t.Fatalf("flush round %d: %v", round, err)
		}
	}
	close(stop)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
	}

	// Server truth.
	got, err := r.core.Files.ReadAt(f, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("server byte0=%d want=%d, holders=%d, readOps=%d", got[0], rounds-1, r.srv.Holders(uint64(f)), readOps.Load())
	t.Logf("server metrics: grants=%d recalls=%d broken=%d expired=%d",
		r.srec.Gauge(ccache.MetricLeaseGrants).Value(), r.srec.Gauge(ccache.MetricLeaseRecalls).Value(),
		r.srec.Gauge(ccache.MetricLeaseBroken).Value(), r.srec.Gauge(ccache.MetricLeaseExpired).Value())

	t.Logf("writer: %s", writer.DebugState(f))

	stale := false
	for i, cc := range ccs {
		desc := cc.DebugState(f)
		out, err := cc.ReadAt(f, 0, 1)
		if err != nil {
			t.Fatalf("reader %d final read: %v", i, err)
		}
		ok := len(out) == 1 && out[0] == byte(rounds-1)
		if !ok {
			stale = true
		}
		t.Logf("reader %d: %s -> final read %v ok=%v", i, desc, out, ok)
	}
	if stale {
		t.Fatal("stale reader")
	}
}
