package experiments

// E23: coherent client caching. One node (the lease manager in its stack),
// N clients re-reading a hot file — first uncached (every read is a server
// round trip), then through the lease-backed client cache (after warm-up,
// re-reads are local memory and the server's file-service read count stays
// flat). A recall-storm cell then has one writer invalidating
// the whole reader population per round, which is the coherence protocol's
// worst case.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ccache"
	"repro/internal/core"
	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/workload"
)

// E23 parameters: a hot file comfortably inside every client's cache, 4 KiB
// re-reads, and a client population large enough that the uncached cell
// meaningfully loads the server.
const (
	e23Clients     = 8
	e23FileSize    = 64 << 10
	e23OpSize      = 4 << 10
	e23OpsPerAgent = 1500
	e23StormRounds = 40
	e23StormReads  = 25
)

// e23Rig is a single file server — the stack rhodosd runs, lease manager
// included — on loopback TCP, and the clients dialed against it.
type e23Rig struct {
	srv  *node.Node
	srec *obs.Recorder
	hot  fileservice.FileID
	cls  []*node.Client
}

func newE23Rig() (*e23Rig, error) {
	r := &e23Rig{srec: obs.New()}
	var err error
	r.srv, err = startSolo(node.Config{Facility: core.Config{ServerCacheBlocks: 1024, Obs: r.srec}})
	if err != nil {
		return nil, err
	}
	files := r.srv.Facility.Files
	r.hot, err = files.Create(fit.Attributes{})
	if err != nil {
		r.close()
		return nil, err
	}
	seed := make([]byte, e23FileSize)
	for i := range seed {
		seed[i] = byte(i)
	}
	if _, err := files.WriteAt(r.hot, 0, seed); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *e23Rig) close() {
	for _, cl := range r.cls {
		_ = cl.Close()
	}
	_ = r.srv.Close()
}

// reads counts the reads and writes that reached the file service, off the
// server's own recorder; over a read-only window it is the read RPCs the
// clients did not absorb.
func (r *e23Rig) reads() int64 { return r.srec.LayerCount(obs.LayerFileService) }

// dial dials one client stack: cached (lease-holding, recall sink wired) or
// not (every read a server round trip, the baseline). rec receives the
// client's telemetry and may be nil.
func (r *e23Rig) dial(id uint64, cached bool, rec *obs.Recorder) (*node.Client, error) {
	cl, err := node.Dial(node.ClientConfig{
		Endpoints: []string{r.srv.Addr()},
		ClientID:  id,
		Cache:     cached,
		Obs:       rec,
	})
	if err != nil {
		return nil, err
	}
	r.cls = append(r.cls, cl)
	return cl, nil
}

// e23ReRead drives the read-only closed loop over the hot file and reports
// throughput, latency quantiles, and how many read RPCs reached the disk
// service during the measured window.
func (r *e23Rig) e23ReRead(agents []workload.LoadAgent) (workload.LoadResult, int64, error) {
	before := r.reads()
	res, err := workload.Run(workload.LoadConfig{
		OpsPerAgent: e23OpsPerAgent,
		ReadFrac:    1.0,
		OpSize:      e23OpSize,
		FileSize:    e23FileSize,
		Seed:        23,
	}, agents)
	return res, r.reads() - before, err
}

// CachedReadRun executes the before/after hot-spot cells against one rig:
// the uncached baseline, then the cached population (warmed by one full-file
// read each). Exported for the shape test. Returns uncached and cached
// (result, server read RPCs) plus the hit count observed by client 0.
func CachedReadRun() (unc, cac workload.LoadResult, uncReads, cacReads, hits int64, err error) {
	rig, err := newE23Rig()
	if err != nil {
		return
	}
	defer rig.close()

	// hotAgent drives positional I/O on the hot file through a client stack.
	hotAgent := func(cl *node.Client) workload.LoadAgent {
		return loadAgent{
			read:  func(off int64, n int) ([]byte, error) { return cl.Files.ReadAt(rig.hot, off, n) },
			write: func(off int64, data []byte) (int, error) { return cl.Files.WriteAt(rig.hot, off, data) },
		}
	}
	raws := make([]workload.LoadAgent, e23Clients)
	for i := range raws {
		cl, cerr := rig.dial(uint64(1+i), false, nil)
		if cerr != nil {
			err = cerr
			return
		}
		raws[i] = hotAgent(cl)
	}
	unc, uncReads, err = rig.e23ReRead(raws)
	if err != nil {
		return
	}

	cached := make([]workload.LoadAgent, e23Clients)
	var rec0 *obs.Recorder
	for i := range cached {
		rec := obs.New()
		if i == 0 {
			rec0 = rec
		}
		cl, cerr := rig.dial(uint64(100+i), true, rec)
		if cerr != nil {
			err = cerr
			return
		}
		// Warm-up: one full-file read acquires the lease and populates every
		// block, so the measured loop is pure re-read.
		if _, cerr := cl.Files.ReadAt(rig.hot, 0, e23FileSize); cerr != nil {
			err = cerr
			return
		}
		cached[i] = hotAgent(cl)
	}
	cac, cacReads, err = rig.e23ReRead(cached)
	if err != nil {
		return
	}
	hits = rec0.Gauge(ccache.MetricHits).Value()
	return
}

// StormResult is the recall-storm cell's outcome.
type StormResult struct {
	Rounds    int
	Readers   int
	ReadOps   int64
	Recalls   int64 // server-initiated recall pushes
	Wall      time.Duration
	Converged bool // every reader observed the final version's bytes
}

// RecallStormRun executes the recall-storm cell: `readers` cache clients
// re-reading the hot file while one writer mutates it every round. Each
// write conflicts with every read lease, so the server recalls the whole
// population per round; the cell checks the cost of that storm and that
// every reader converges on the final bytes.
func RecallStormRun(rounds, readers, readsPerRound int) (*StormResult, error) {
	rig, err := newE23Rig()
	if err != nil {
		return nil, err
	}
	defer rig.close()

	wcl, err := rig.dial(1, true, obs.New())
	if err != nil {
		return nil, err
	}
	writer := wcl.Cache
	ccs := make([]*ccache.Client, readers)
	for i := range ccs {
		cl, cerr := rig.dial(uint64(10+i), true, obs.New())
		if cerr != nil {
			return nil, cerr
		}
		ccs[i] = cl.Cache
	}

	res := &StormResult{Rounds: rounds, Readers: readers}
	var readOps atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make([]error, readers)
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
				for j := 0; j < readsPerRound; j++ {
					if _, err := cc.ReadAt(rig.hot, int64(j%16)*e23OpSize/2, e23OpSize); err != nil {
						errs[i] = err
						return
					}
					readOps.Add(1)
				}
			}
		}(i, cc)
	}

	start := time.Now()
	buf := make([]byte, e23OpSize)
	for round := 0; round < rounds; round++ {
		for i := range buf {
			buf[i] = byte(round + i)
		}
		if _, err := writer.WriteAt(rig.hot, 0, buf); err != nil {
			close(stop)
			wg.Wait()
			return nil, fmt.Errorf("storm writer round %d: %w", round, err)
		}
		if err := writer.FlushFile(rig.hot); err != nil {
			close(stop)
			wg.Wait()
			return nil, fmt.Errorf("storm flush round %d: %w", round, err)
		}
	}
	close(stop)
	wg.Wait()
	res.Wall = time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res.ReadOps = readOps.Load()
	res.Recalls = rig.srec.Gauge(ccache.MetricLeaseRecalls).Value()

	// Convergence: after the last write's flush and recalls, every reader's
	// next read must see the final round's bytes.
	want := byte(rounds - 1)
	res.Converged = true
	for _, cc := range ccs {
		got, err := cc.ReadAt(rig.hot, 0, 1)
		if err != nil {
			return nil, err
		}
		if len(got) != 1 || got[0] != want {
			res.Converged = false
		}
	}
	return res, nil
}

// E23ClientCache measures the coherent client cache: hot-spot re-read
// throughput uncached vs cached (the cached population must not touch the
// disk service in steady state), and the recall-storm worst case.
func E23ClientCache() (*Table, error) {
	t := &Table{
		ID:      "E23",
		Title:   "Coherent client caching: leases, recalls, write-back",
		Claim:   "cached re-reads of a hot file never reach the disk service and beat the uncached path by >5x; one writer recalling the whole reader population stays correct",
		Columns: []string{"cell", "clients", "ops", "wall", "ops/sec", "read RPCs", "p50", "p99", "note"},
	}
	unc, cac, uncReads, cacReads, hits, err := CachedReadRun()
	if err != nil {
		return nil, err
	}
	t.AddRow("uncached re-read", e23Clients, unc.Ops, unc.Wall,
		fmt.Sprintf("%.0f", unc.OpsPerSec()), uncReads,
		unc.Latency.Quantile(0.50), unc.Latency.Quantile(0.99), "every read a server round trip")
	speedup := cac.OpsPerSec() / unc.OpsPerSec()
	t.AddRow("cached re-read", e23Clients, cac.Ops, cac.Wall,
		fmt.Sprintf("%.0f", cac.OpsPerSec()), cacReads,
		cac.Latency.Quantile(0.50), cac.Latency.Quantile(0.99),
		fmt.Sprintf("%.1fx vs uncached; client-0 hits %d", speedup, hits))

	st, err := RecallStormRun(e23StormRounds, e23Clients-1, e23StormReads)
	if err != nil {
		return nil, err
	}
	t.AddRow("recall storm", st.Readers+1, st.ReadOps, st.Wall,
		fmt.Sprintf("%.0f", float64(st.ReadOps)/st.Wall.Seconds()), "—", "—", "—",
		fmt.Sprintf("%d writer rounds, %d recalls, converged=%v", st.Rounds, st.Recalls, st.Converged))

	t.Notes = append(t.Notes,
		fmt.Sprintf("hot file %d KiB, %d KiB reads, %d clients x %d ops per cell", e23FileSize>>10, e23OpSize>>10, e23Clients, e23OpsPerAgent),
		"cached cell warms each client with one full-file read, then measures pure re-read; the read-RPC column counts requests reaching the disk service during the measured window (cached steady state: 0)",
		"recall storm: every write conflicts with every reader's lease, so the server recalls the whole population per round; readers re-acquire and refetch, and all converge on the final bytes",
		"write-back runs on close, recall, truncate, the dirty high-water mark, a write that cannot get a write lease, and an explicit flush or shutdown; the crash-with-dirty-write-back case is E18's writeback scenario")
	return t, nil
}
