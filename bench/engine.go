package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/ccache"
	"repro/internal/core"
)

// sliceDur is the sampler period: the window is judged slice by slice.
const sliceDur = 500 * time.Millisecond

// worker is one closed-loop client: it issues its next op when the previous
// one has completed.
type worker struct {
	tag  uint8 // span client ID, 1-based
	rng  *rand.Rand
	tr   *tracer
	ref  *refKernel
	step func() (class int, ns int64, err error)

	ops       atomic.Uint64 // completed ops, read by the sampler
	attempted uint64
	failed    uint64
	firstErr  error
	hists     [][]hist // [slice][class]; the last slice takes ops that finish after the window
	// sub is where a step leaves the latencies of the parts of a compound
	// op, by class; the loop files them beside the op's own sample.
	sub    [maxClasses]int64
	kernel []int64 // reference-kernel time at the start of each slice
}

// maxClasses bounds the op classes of one workload.
const maxClasses = 4

// call times one agent call and records its span.
func (w *worker) call(kind uint8, f func() error) (int64, error) {
	t0 := w.tr.now()
	err := f()
	t1 := w.tr.now()
	w.span(kind, t0, t1)
	return t1 - t0, err
}

// span records an agent-layer span while tracing.
func (w *worker) span(kind uint8, t0, t1 int64) {
	if w.tr.on.Load() {
		w.tr.add(layerAgent, kind, w.tag, t0, t1)
	}
}

func (w *worker) fail(err error) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// rig is one workload's program under test plus the clients driving it.
type rig struct {
	tr      *tracer
	nodes   []*node       // nodes[0] answers the clients; empty for the in-process rig
	fac     *core.Cluster // the facility the ops land on
	clients []*client
	workers []*worker
	classes []string // op classes; classes[0] is the one the end-to-end latencies report

	verify func() error                       // data check after the window
	probe  func(out map[string]float64) error // direct calls below rpcfs, single caller
	closer func()
}

func (r *rig) close() {
	for _, c := range r.clients {
		_ = c.close()
	}
	for i := len(r.nodes) - 1; i >= 0; i-- {
		r.nodes[i].close()
	}
	if r.closer != nil {
		r.closer()
	}
}

// warm runs a fixed count of ops per worker from the same generators the
// window continues with, recording nothing.
func (r *rig) warm(opsPerWorker int) error {
	var wg sync.WaitGroup
	for _, w := range r.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				if _, _, err := w.step(); err != nil {
					w.fail(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, w := range r.workers {
		w.sub = [maxClasses]int64{}
		if w.firstErr != nil {
			return fmt.Errorf("warm-up: %w", w.firstErr)
		}
	}
	return nil
}

// counters is everything read as a before/after pair around a window, by
// name: the serving facility's metrics.Set under its own names, and beside it
// the figures the benchmark's taps and the runtime keep.
type counters map[string]float64

func (r *rig) snapshot() counters {
	c := counters{}
	for name, v := range r.fac.Metrics.Snapshot() {
		c[name] = float64(v)
	}
	for _, cl := range r.clients {
		c["client.retries"] += float64(cl.met.Get("rpc.retries"))
		if cl.cc != nil {
			c["ccache.hits"] += float64(cl.rec.Gauge(ccache.MetricHits).Value())
			c["ccache.misses"] += float64(cl.rec.Gauge(ccache.MetricMisses).Value())
			c["ccache.inner_calls"] += float64(cl.tap.calls.Load())
		}
	}
	if len(r.nodes) > 0 {
		n := r.nodes[0]
		c["server.readats"] = float64(n.readAts.Load())
		c["barrier.ns"] = float64(n.barrierNS.Load())
		if n.ship != nil {
			c["ship.count"], c["ship.recs"] = float64(n.ship.ships.Load()), float64(n.ship.recs.Load())
			c["ship.ns"], c["ship.timed"] = float64(n.ship.shipNS.Load()), float64(n.ship.timed.Load())
		}
	}
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	c["go.alloc_bytes"], c["go.alloc_objs"] = float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())
	var gs debug.GCStats
	debug.ReadGCStats(&gs)
	c["go.gc_pause_ns"] = float64(gs.PauseTotal)
	steal, total := procStat()
	c["host.steal_ticks"], c["host.total_ticks"] = float64(steal), float64(total)
	return c
}

// procStat reads the steal and total jiffies of /proc/stat's cpu line; both
// are 0 where the host does not expose them.
func procStat() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// windowResult is one measured window.
type windowResult struct {
	slices    []slice
	grew      counters // what each counter grew by over the window
	attempted uint64
	failed    uint64
	firstErr  error
	heapMB    float64
	kernelNS  []float64 // every reference-kernel timing of the window
}

// done is the number of ops that completed.
func (w *windowResult) done() float64 { return float64(w.attempted - w.failed) }

func (w *windowResult) seconds() float64 {
	var s float64
	for i := range w.slices {
		s += w.slices[i].seconds
	}
	return s
}

// measure runs every worker closed-loop for the given time. A sampler cuts
// the window into slices: at each tick it reads the clock, the process's CPU
// time and every worker's op counter at the same instant, then moves the
// workers on to the next slice's histograms.
func (r *rig) measure(d time.Duration) *windowResult {
	n := int((d + sliceDur - 1) / sliceDur)
	for _, w := range r.workers {
		w.hists = make([][]hist, n+1)
		for i := range w.hists {
			w.hists[i] = make([]hist, len(r.classes))
		}
		w.attempted, w.failed, w.firstErr = 0, 0, nil
		w.kernel = make([]int64, n+1)
	}
	res := &windowResult{slices: make([]slice, n)}
	var cur atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup

	type sample struct {
		t, cpu int64
		ops    []uint64
	}
	take := func() sample {
		s := sample{t: r.tr.now(), cpu: cpuNS(), ops: make([]uint64, len(r.workers))}
		for i, w := range r.workers {
			s.ops[i] = w.ops.Load()
		}
		return s
	}

	before := r.snapshot()
	for _, w := range r.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			at := int64(-1)
			for !stop.Load() {
				if c := cur.Load(); c != at {
					at = c
					w.kernel[c] = w.ref.run()
				}
				class, ns, err := w.step()
				w.attempted++
				if err != nil {
					w.fail(err)
					continue
				}
				h := w.hists[at]
				h[class].record(ns)
				for c, d := range w.sub {
					if d > 0 {
						h[c].record(d)
						w.sub[c] = 0
					}
				}
				w.ops.Add(1)
			}
		}(w)
	}
	start := time.Now()
	prev := take()
	for i := 0; i < n; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i+1) * sliceDur)))
		s := take()
		cur.Store(int64(i + 1))
		sl := &res.slices[i]
		sl.seconds = float64(s.t-prev.t) / 1e9
		sl.cpuNS = s.cpu - prev.cpu
		for j := range s.ops {
			sl.ops += s.ops[j] - prev.ops[j]
		}
		prev = s
	}
	stop.Store(true)
	wg.Wait()
	res.grew = r.snapshot()
	for name, v := range before {
		res.grew[name] -= v
	}
	hs := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(hs)
	res.heapMB = float64(hs[0].Value.Uint64()) / (1 << 20)

	for i := range res.slices {
		sl := &res.slices[i]
		// The kernels ran inside the slice, on every worker at once: their
		// time is not the workload's, their CPU time neither.
		var kernels int64
		for _, w := range r.workers {
			kernels += w.kernel[i]
			res.kernelNS = append(res.kernelNS, float64(w.kernel[i]))
		}
		sl.seconds -= float64(kernels) / float64(len(r.workers)) / 1e9
		sl.cpuNS -= kernels
		sl.hists = make([]hist, len(r.classes))
		for _, w := range r.workers {
			for c := range r.classes {
				res.slices[i].hists[c].merge(&w.hists[i][c])
			}
		}
	}
	for _, w := range r.workers {
		res.attempted += w.attempted
		res.failed += w.failed
		if res.firstErr == nil {
			res.firstErr = w.firstErr
		}
		w.hists = nil
	}
	return res
}
