package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/agent"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/fit"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/rpcfs"
	"repro/internal/workload"
)

// E20 parameters. Eight client agents share each TCP connection — the
// configuration where per-connection head-of-line blocking shows or doesn't:
// the serial baseline admits one request per connection at a time, so a
// connection's throughput is capped at 1/(agentsPerConn × service time),
// while the multiplexed transport keeps all eight requests of a connection
// in flight at once.
const (
	e20AgentsPerConn = 8
	e20OpSize        = 4 << 10
	e20FileSize      = 128 << 10
	e20ReadFrac      = 0.7
	// e20ServiceTime is the injected per-request service time at the
	// server's dispatch point (PtTCPServe) — the stand-in for media time on
	// a server with ample internal parallelism, the same role
	// SetWallFactor plays in E16. It is what a pipelined transport overlaps
	// and a serial one eats per round trip.
	e20ServiceTime = time.Millisecond
)

// e20Ops picks operations per agent so every cell finishes in a fraction of
// a second while the percentile sample count stays useful.
func e20Ops(clients int) int {
	ops := 400 / clients
	if ops < 50 {
		ops = 50
	}
	return ops
}

// E20LoadScaling measures the serving path under closed-loop concurrency:
// 1/8/64/256 client agents (8 per TCP connection) driving positional reads
// and writes through agent → rpcfs client → rpc → a node.Start server over
// real loopback TCP, once with one call in flight per connection
// (serialTransport) and once multiplexed — same frames, same codec. Each
// server-side request carries a 1 ms injected service time; the multiplexed
// transport overlaps those across a connection, the serial baseline cannot.
func E20LoadScaling() (*Table, error) {
	t := &Table{
		ID:      "E20",
		Title:   "Closed-loop load: serial vs multiplexed use of a connection",
		Claim:   "connection multiplexing sustains concurrent clients per connection; the serial transport serializes them",
		Columns: []string{"transport", "clients", "conns", "ops", "wall", "ops/sec", "p50", "p95", "p99", "vs serial"},
	}
	rec := obs.New() // headline profile: the largest multiplexed cell
	for _, clients := range []int{1, 8, 64, 256} {
		var serialOps float64
		for _, serial := range []bool{true, false} {
			var cellRec *obs.Recorder
			if !serial && clients == 256 {
				cellRec = rec
			}
			res, err := loadRun(serial, clients, e20AgentsPerConn, e20Ops(clients), 0, 0, cellRec)
			if err != nil {
				return nil, err
			}
			opsPerSec := res.OpsPerSec()
			label, ratio := "multiplexed", "—"
			if serial {
				label, serialOps = "serial", opsPerSec
			} else if serialOps > 0 {
				ratio = fmt.Sprintf("%.1fx", opsPerSec/serialOps)
			}
			conns := (clients + e20AgentsPerConn - 1) / e20AgentsPerConn
			t.AddRow(label, clients, conns, res.Ops, res.Wall,
				fmt.Sprintf("%.0f", opsPerSec),
				res.Latency.Quantile(0.50), res.Latency.Quantile(0.95), res.Latency.Quantile(0.99), ratio)
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("closed loop over real loopback TCP: %d agents per connection, %d KB ops, %.0f%% reads, client cache off",
			e20AgentsPerConn, e20OpSize>>10, e20ReadFrac*100),
		fmt.Sprintf("every request carries a %s injected service time at the server dispatch point (rpc.tcp.serve) — the media-time stand-in the transports must overlap", e20ServiceTime),
		"serial rows: one request in flight per connection (a mutex across the round trip), same frames and codec",
		"multiplexed rows: tagged frames multiplex each connection; the worker pool executes a connection's requests concurrently",
		"the per-layer profile below traces the largest multiplexed cell (256 clients)")
	t.Profile = rec.Profile()
	return t, nil
}

// loadAgent adapts a positional read/write pair to workload.LoadAgent: a
// descriptor on a file agent (fdAgent) or any file-ID-addressed service.
type loadAgent struct {
	read  func(off int64, n int) ([]byte, error)
	write func(off int64, data []byte) (int, error)
}

func (a loadAgent) ReadAt(off int64, n int) ([]byte, error)     { return a.read(off, n) }
func (a loadAgent) WriteAt(off int64, data []byte) (int, error) { return a.write(off, data) }

func fdAgent(fa *agent.FileAgent, proc *agent.Process, fd int) loadAgent {
	return loadAgent{
		read:  func(off int64, n int) ([]byte, error) { return fa.PRead(proc, fd, off, n) },
		write: func(off int64, data []byte) (int, error) { return fa.PWrite(proc, fd, off, data) },
	}
}

// seedFile is every load population's per-client step: create path through
// machine m, write seed to it, and hand back the load agent over the open
// descriptor.
func seedFile(m *agent.Machine, path string, seed []byte) (loadAgent, error) {
	proc, fa := m.NewProcess(), m.FileAgent()
	fd, err := fa.Create(proc, path, fit.Attributes{})
	if err != nil {
		return loadAgent{}, err
	}
	if _, err := fa.PWrite(proc, fd, 0, seed); err != nil {
		return loadAgent{}, err
	}
	return fdAgent(fa, proc, fd), nil
}

// loadRig is E20's load harness: a fresh node served over loopback TCP,
// clients agent machines in groups of agentsPerConn per connection, each
// with its file materialized and the per-request service time armed. The
// clients are raw rpcfs clients, not node.Dial stacks: agentsPerConn of
// them share one transport, which is the thing under test.
type loadRig struct {
	agents []workload.LoadAgent
	closes []func()
}

func (r *loadRig) close() {
	for i := len(r.closes) - 1; i >= 0; i-- {
		r.closes[i]()
	}
}

// serialTransport is E20's baseline: the production transport with one call
// in flight per connection, so serial and multiplexed rows differ only in
// what the experiment is about.
type serialTransport struct {
	*rpc.TCPTransport
	mu sync.Mutex
}

func (s *serialTransport) Send(req rpc.Request) (rpc.Response, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.TCPTransport.Send(req)
}

func (s *serialTransport) SendWithDeadline(req rpc.Request, deadline time.Time) (rpc.Response, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.TCPTransport.SendWithDeadline(req, deadline)
}

func newLoadRig(serial bool, clients, agentsPerConn int, rec *obs.Recorder) (*loadRig, error) {
	if clients <= 0 || agentsPerConn <= 0 {
		return nil, fmt.Errorf("experiments: bad load cell: %d clients, %d per conn", clients, agentsPerConn)
	}
	r := &loadRig{}
	fail := func(err error) (*loadRig, error) {
		r.close()
		return nil, err
	}
	inj := fault.NewInjector(0)
	srv, err := startSolo(node.Config{
		Facility: rigFacility(rec),
		Fault:    inj,
		// Workers sized so injected service-time sleeps never starve the
		// pool: every in-flight request can hold a worker simultaneously.
		Workers: 2*clients + 16,
		Window:  4096,
	})
	if err != nil {
		return fail(err)
	}
	r.closes = append(r.closes, func() { _ = srv.Close() })
	c := srv.Facility

	conns := (clients + agentsPerConn - 1) / agentsPerConn
	transports := make([]rpc.Transport, conns)
	for i := range transports {
		tr, err := rpc.DialTCP(srv.Addr())
		if err != nil {
			return fail(err)
		}
		r.closes = append(r.closes, func() { _ = tr.Close() })
		transports[i] = tr
		if serial {
			transports[i] = &serialTransport{TCPTransport: tr}
		}
	}

	// Build one agent machine per client over its share of the connections
	// and materialize each client's file — all before the service-time
	// injection is armed, so setup runs at full speed.
	r.agents = make([]workload.LoadAgent, clients)
	seed := make([]byte, e20FileSize)
	for i := range r.agents {
		cl := &rpcfs.Client{C: rpc.NewClient(transports[i/agentsPerConn], uint64(i+1), 10, c.Metrics)}
		// No client cache under the agent: every timed op must cross the wire.
		m, err := agent.NewMachine(agent.MachineConfig{Naming: c.Naming, Files: cl, Obs: rec})
		if err != nil {
			return fail(err)
		}
		if r.agents[i], err = seedFile(m, fmt.Sprintf("/e20/client%d", i), seed); err != nil {
			return fail(err)
		}
	}

	inj.Arm(rpc.PtTCPServe, fault.Action{Kind: fault.KindDelay, Delay: e20ServiceTime, Times: -1})
	r.closes = append(r.closes, inj.DisarmAll)
	return r, nil
}

// LoadRun executes one load cell over E20's rig: with rate 0 a closed loop,
// each agent running opsPerAgent timed operations back to back; with rate >
// 0 an open loop, operations arriving at rate ops/sec in aggregate for
// duration, so latency includes queueing delay and a shortfall between
// offered and completed operations is the overload signature. Exported for
// cmd/rhodos-bench's -load mode. rec (optional) receives the spans of every
// layer on both sides of the wire.
func LoadRun(clients, agentsPerConn, opsPerAgent int, rate float64, duration time.Duration, rec *obs.Recorder) (workload.LoadResult, error) {
	return loadRun(false, clients, agentsPerConn, opsPerAgent, rate, duration, rec)
}

// loadRun is LoadRun, optionally over E20's serial baseline.
func loadRun(serial bool, clients, agentsPerConn, opsPerAgent int, rate float64, duration time.Duration, rec *obs.Recorder) (workload.LoadResult, error) {
	rig, err := newLoadRig(serial, clients, agentsPerConn, rec)
	if err != nil {
		return workload.LoadResult{}, err
	}
	defer rig.close()
	return workload.Run(workload.LoadConfig{
		OpsPerAgent: opsPerAgent,
		ReadFrac:    e20ReadFrac,
		OpSize:      e20OpSize,
		FileSize:    e20FileSize,
		Seed:        1,
		Rate:        rate,
		Duration:    duration,
	}, rig.agents)
}

// ClusterLoadRun executes one closed-loop load cell against an
// already-running cluster of rhodosd shards: one Router per client agent,
// each client's file pinned round-robin across the shards. backups, when
// non-nil, is the per-shard backup list the routers fail over to (may be
// nil for an unreplicated cluster). baseID and tag must be unique per
// invocation (the caller derives them from the clock) so client IDs miss the
// servers' duplicate caches and file names miss the namespace of earlier
// runs. Exported for cmd/rhodos-bench's -addrs mode.
func ClusterLoadRun(endpoints, backups []string, clients, opsPerAgent int, baseID uint64, tag string) (workload.LoadResult, error) {
	cls, cleanup, err := dialPinned(cluster.Map{Version: 1, Endpoints: endpoints, Backups: backups}, clients, 0, baseID, tag, nil)
	defer cleanup()
	if err != nil {
		return workload.LoadResult{}, err
	}
	return workload.Run(workload.LoadConfig{
		OpsPerAgent: opsPerAgent,
		ReadFrac:    e20ReadFrac,
		OpSize:      e20OpSize,
		FileSize:    e20FileSize,
		Seed:        1,
	}, agentsOf(cls))
}
