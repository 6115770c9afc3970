package workload

// Load generation: N agents drive real operations and every operation is
// timed, so the harness can report throughput and latency percentiles for a
// serving path. Unlike the generators in workload.go (which just draw
// operations), Run is the one driver every wall-clock cell shares. Its stop
// rules cover the three shapes of load the cells need:
//
//   - closed loop, counted: each agent issues OpsPerAgent operations, the
//     next as soon as the previous one completes, so concurrency equals the
//     agent count throughout;
//   - closed loop, timed: the same until Duration has passed (availability
//     phases, where failures are the measurement);
//   - open loop: operations arrive on a fixed schedule at Rate ops/sec
//     whether or not earlier ones have completed. A closed loop can never
//     show queueing collapse — its arrival rate falls to match service
//     capacity — so saturation cells drive the open loop and measure latency
//     from each operation's *scheduled* arrival, making queueing visible.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
)

// LoadAgent is one concurrent client of the system under load. The two
// operations mirror the file agent's positional I/O.
type LoadAgent interface {
	ReadAt(off int64, n int) ([]byte, error)
	WriteAt(off int64, data []byte) (int, error)
}

// LoadConfig shapes one run. The stop rule is the first that applies: Rate
// (an open loop over Duration; OpsPerAgent is ignored), then OpsPerAgent,
// then Duration.
type LoadConfig struct {
	// OpsPerAgent is the number of operations each agent issues.
	OpsPerAgent int
	// ReadFrac is the fraction of reads (see AccessGen).
	ReadFrac float64
	// OpSize is the bytes per operation.
	OpSize int
	// FileSize bounds each agent's offsets.
	FileSize int64
	// Sequential makes each agent scan linearly instead of uniformly.
	Sequential bool
	// Seed makes the operation streams reproducible; agent i derives its
	// stream from Seed+i.
	Seed int64
	// Rate is the aggregate open-loop arrival rate in ops/sec, spread evenly
	// across agents with per-agent phase offsets; 0 runs a closed loop.
	Rate float64
	// Duration ends a timed run: an agent issues no operation after it.
	Duration time.Duration
}

// AgentResult is one agent's share of a run.
type AgentResult struct {
	// OK and Failed count the agent's completed and failed operations.
	OK, Failed int
	// Err is the agent's first failure, nil when there was none.
	Err error
	// Latency holds one sample per operation, failed ones included.
	Latency *obs.Histogram
}

// LoadResult summarizes one run.
type LoadResult struct {
	// Ops counts the operations that completed without error.
	Ops   int
	Bytes int64
	Wall  time.Duration
	// Offered is the number of operations an open loop's arrival schedule
	// issued; under overload each agent's FIFO falls behind, and the gap
	// between Offered and Ops is the overload signature. 0 in a closed loop.
	Offered int
	// Latency merges every agent's samples.
	Latency *obs.Histogram
	// PerAgent holds agent i's share at index i.
	PerAgent []AgentResult
}

// OpsPerSec is the aggregate completion rate.
func (r LoadResult) OpsPerSec() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Wall.Seconds()
}

// Run drives every agent with its own seeded operation stream, timing each
// operation into the agent's histogram. A failed operation is counted and
// the agent carries on; the run's error is then the first failure of the
// lowest-numbered agent that failed, returned beside the complete result, so
// a caller that needs a clean run checks err alone and one that measures
// failures reads PerAgent. A bad config returns an error and no result.
func Run(cfg LoadConfig, agents []LoadAgent) (LoadResult, error) {
	if cfg.OpSize <= 0 || cfg.FileSize <= 0 || len(agents) == 0 || cfg.Rate < 0 ||
		(cfg.Rate > 0 && cfg.Duration <= 0) || (cfg.OpsPerAgent <= 0 && cfg.Duration <= 0) {
		return LoadResult{}, fmt.Errorf("workload: bad load config %+v for %d agents", cfg, len(agents))
	}
	res := LoadResult{PerAgent: make([]AgentResult, len(agents))}
	limit, timed := cfg.OpsPerAgent, cfg.Rate > 0 || cfg.OpsPerAgent <= 0
	if timed {
		limit = 0 // no count: the deadline stops a timed closed loop
	}
	// Open loop: agent i's k-th operation is scheduled at start + phase(i) +
	// k*gap.
	var gap time.Duration
	if cfg.Rate > 0 {
		gap = max(time.Duration(float64(len(agents))/cfg.Rate*float64(time.Second)), time.Nanosecond)
		limit = int(cfg.Duration / gap)
		if limit <= 0 {
			return LoadResult{}, fmt.Errorf("workload: duration %v shorter than inter-arrival gap %v", cfg.Duration, gap)
		}
		res.Offered = limit * len(agents)
		// The schedule is fixed, so collect setup garbage now rather than
		// let its pauses bleed into the measured latencies.
		runtime.GC()
	}
	for i := range res.PerAgent {
		res.PerAgent[i].Latency = &obs.Histogram{}
	}

	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	for i, a := range agents {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ar := &res.PerAgent[i]
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
			gen := AccessGen{FileSize: cfg.FileSize, ReadFrac: cfg.ReadFrac, OpSize: cfg.OpSize, Sequential: cfg.Sequential}
			buf := make([]byte, cfg.OpSize)
			phase := gap * time.Duration(i) / time.Duration(len(agents))
			for op := 0; limit == 0 || op < limit; op++ {
				// A timed run ends at the deadline: operations an open loop
				// still has queued behind a backed-up FIFO stay offered but
				// uncompleted.
				if timed && !time.Now().Before(deadline) {
					return
				}
				began := time.Now()
				if gap > 0 {
					// Latency from scheduled arrival, not operation start:
					// queueing behind the agent's FIFO is part of the cost.
					began = start.Add(phase + gap*time.Duration(op))
					time.Sleep(time.Until(began))
				}
				acc := gen.Next(rng)
				var err error
				if acc.Read {
					_, err = a.ReadAt(acc.Offset, acc.Length)
				} else {
					_, err = a.WriteAt(acc.Offset, buf[:acc.Length])
				}
				ar.Latency.Record(time.Since(began))
				if err == nil {
					ar.OK++
					continue
				}
				if ar.Failed++; ar.Err == nil {
					ar.Err = fmt.Errorf("workload: agent %d op %d: %w", i, op, err)
				}
			}
		}()
	}
	wg.Wait()
	res.Wall = time.Since(start)

	res.Latency = &obs.Histogram{}
	var err error
	for _, ar := range res.PerAgent {
		res.Ops += ar.OK
		res.Latency.Merge(ar.Latency)
		if err == nil {
			err = ar.Err
		}
	}
	res.Bytes = int64(res.Ops) * int64(cfg.OpSize)
	return res, err
}
