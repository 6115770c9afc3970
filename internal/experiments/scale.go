package experiments

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/lock"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/workload"
)

// E21 parameters. Every server's worker pool is capped and every request
// carries an injected service time, so a single server has a hard capacity
// ceiling (workers / service time ≈ 8k ops/s) and the only way the client
// population's demand is met is by adding servers: aggregate throughput
// then scales with the shard count until the closed-loop clients themselves
// become the bound.
const (
	e21OpSize           = 4 << 10
	e21FileSize         = 128 << 10
	e21ReadFrac         = 0.7
	e21ServiceTime      = time.Millisecond
	e21WorkersPerServer = 8
	e21Clients          = 24
	// e21OpsPerAgent keeps the slowest cell (one server serving all 24
	// clients at ~8k ops/s) around a third of a second.
	e21OpsPerAgent = 100
)

// rigFacility is the facility every networked rig's servers run: two 64 MB
// disks and a server cache that holds the working set.
func rigFacility(rec *obs.Recorder) core.Config {
	return core.Config{
		Disks:             2,
		Geometry:          device.Geometry{FragmentsPerTrack: 32, Tracks: 1024},
		ServerCacheBlocks: 4096,
		Obs:               rec,
	}
}

// listenLoopback binds n ephemeral loopback ports: a rig needs every address
// before it can hand any server the cluster map.
func listenLoopback(n int) ([]net.Listener, []string, error) {
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				_ = l.Close()
			}
			return nil, nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	return lns, addrs, nil
}

// startNodes boots shard i of the map on lns[i], from the config cfg(i)
// returns (shard, map and listener are filled in here). On error nothing is
// left running or bound.
func startNodes(m cluster.Map, lns []net.Listener, cfg func(shard int) node.Config) ([]*node.Node, error) {
	nodes := make([]*node.Node, 0, len(lns))
	for i, ln := range lns {
		c := cfg(i)
		c.Shard, c.Map, c.Listener = i, m, ln
		n, err := node.Start(c)
		if err != nil {
			for _, l := range lns[i+1:] {
				_ = l.Close()
			}
			closeNodes(nodes)
			return nil, err
		}
		nodes = append(nodes, n)
	}
	return nodes, nil
}

// startSolo boots cfg as the only node of a one-shard cluster on a fresh
// loopback port.
func startSolo(cfg node.Config) (*node.Node, error) {
	lns, addrs, err := listenLoopback(1)
	if err != nil {
		return nil, err
	}
	nodes, err := startNodes(cluster.Map{Version: 1, Endpoints: addrs}, lns, func(int) node.Config { return cfg })
	if err != nil {
		return nil, err
	}
	return nodes[0], nil
}

func closeNodes(nodes []*node.Node) {
	for _, n := range nodes {
		_ = n.Close()
	}
}

// shardRig is an N-shard cluster on loopback TCP: one node per shard — the
// stack rhodosd runs — each behind its own capped worker pool.
type shardRig struct {
	nodes []*node.Node
	injs  []*fault.Injector
	m     cluster.Map
}

func newShardRig(servers int, leaseTTL time.Duration) (*shardRig, error) {
	lns, addrs, err := listenLoopback(servers)
	if err != nil {
		return nil, err
	}
	r := &shardRig{m: cluster.Map{Version: 1, Endpoints: addrs}}
	r.nodes, err = startNodes(r.m, lns, func(int) node.Config {
		inj := fault.NewInjector(0)
		r.injs = append(r.injs, inj)
		return node.Config{
			Facility: rigFacility(nil),
			LeaseTTL: leaseTTL,
			Fault:    inj,
			Workers:  e21WorkersPerServer,
			Window:   4096,
		}
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// armServiceTime injects the per-request service time on every server.
func (r *shardRig) armServiceTime() {
	for _, inj := range r.injs {
		inj.Arm(rpc.PtTCPServe, fault.Action{Kind: fault.KindDelay, Delay: e21ServiceTime, Times: -1})
	}
}

func (r *shardRig) close() { closeNodes(r.nodes) }

// pathForShard probes directory names until one homes on the wanted shard.
func pathForShard(tag string, shard, servers int) string {
	for i := 0; ; i++ {
		p := fmt.Sprintf("/e21/%s-%d/f", tag, i)
		if cluster.ShardForPath(p, servers) == shard {
			return p
		}
	}
}

// e21Client is one load client: its own dialed stack (own connections, own
// rpc client identity) and one seeded file pinned to a chosen shard.
type e21Client struct {
	*node.Client
	agent loadAgent
	shard int
}

// dialPinned is the load population of every node.Dial rig: `clients`
// uncached client stacks with IDs baseID+1, baseID+2, … against the map,
// each one's file seeded and pinned round-robin across the shards. The
// returned cleanup closes whatever was dialed, on error too.
func dialPinned(m cluster.Map, clients, retries int, baseID uint64, tag string, rec *obs.Recorder) ([]e21Client, func(), error) {
	var cls []e21Client
	cleanup := func() {
		for _, cl := range cls {
			_ = cl.Close()
		}
	}
	servers := m.Shards()
	seed := make([]byte, e21FileSize)
	for i := 0; i < clients; i++ {
		c, err := node.Dial(node.ClientConfig{
			Endpoints: m.Endpoints,
			Backups:   m.Backups,
			ClientID:  baseID + uint64(i) + 1,
			Retries:   retries,
			Obs:       rec,
		})
		if err != nil {
			return nil, cleanup, err
		}
		cls = append(cls, e21Client{Client: c, shard: i % servers})
		mach, err := c.NewMachine()
		if err != nil {
			return nil, cleanup, err
		}
		if cls[i].agent, err = seedFile(mach, pathForShard(fmt.Sprintf("%s%d", tag, i), i%servers, servers), seed); err != nil {
			return nil, cleanup, err
		}
	}
	return cls, cleanup, nil
}

// agentsOf lists the clients' load agents in client order.
func agentsOf(cls []e21Client) []workload.LoadAgent {
	agents := make([]workload.LoadAgent, len(cls))
	for i, cl := range cls {
		agents[i] = cl.agent
	}
	return agents
}

// e21Setup boots a rig and clients pinned round-robin across shards, each
// with a seeded file, ready for load. The returned cleanup closes both.
func e21Setup(servers, clients int, leaseTTL time.Duration, retries int) (*shardRig, []e21Client, func(), error) {
	rig, err := newShardRig(servers, leaseTTL)
	if err != nil {
		return nil, nil, nil, err
	}
	cls, closeClients, err := dialPinned(rig.m, clients, retries, 0, "c", nil)
	cleanup := func() {
		closeClients()
		rig.close()
	}
	if err != nil {
		cleanup()
		return nil, nil, nil, err
	}
	return rig, cls, cleanup, nil
}

// ScaleRun executes one scale-out cell: `servers` shards behind capped
// worker pools with injected service time, `clients` client machines routed
// across them. With rate 0 each client runs opsPerAgent operations in a
// closed loop; with rate > 0 the cell is the open-loop counterpart, a fixed
// offered rate for duration, so overload shows up as offered-minus-completed
// and queueing latency rather than as a silently slower closed loop.
// Exported for the shape test.
func ScaleRun(servers, clients, opsPerAgent int, rate float64, duration time.Duration) (workload.LoadResult, error) {
	rig, cls, cleanup, err := e21Setup(servers, clients, 0, 10)
	if err != nil {
		return workload.LoadResult{}, err
	}
	defer cleanup()
	rig.armServiceTime()
	return workload.Run(workload.LoadConfig{
		OpsPerAgent: opsPerAgent,
		ReadFrac:    e21ReadFrac,
		OpSize:      e21OpSize,
		FileSize:    e21FileSize,
		Seed:        21,
		Rate:        rate,
		Duration:    duration,
	}, agentsOf(cls))
}

// AvailabilityPhase is one phase of an E21 availability cell (kill-server,
// failover): per-group success/error counts plus full latency histograms,
// split between clients homed on the victim shard and the survivors, so an
// outage shows up as victim-side errors or a victim-side tail rather than
// averaged away.
type AvailabilityPhase struct {
	Name        string
	Wall        time.Duration
	VictimOK    int64
	VictimErr   int64
	SurvivorOK  int64
	SurvivorErr int64
	Victim      *obs.Histogram
	Survivor    *obs.Histogram
}

// runPhase drives every client for d, client i drawing its accesses from
// seed seedBase+i, and splits the per-client outcome between the victim
// shard's clients and the survivors. Failures do not stop the run — failing
// against a dead shard while the rest of the cluster serves is what the
// kill cell counts — so the run's error is dropped here.
func runPhase(name string, d time.Duration, cls []e21Client, victim int, seedBase int64) AvailabilityPhase {
	res, _ := workload.Run(workload.LoadConfig{
		ReadFrac: e21ReadFrac,
		OpSize:   e21OpSize,
		FileSize: e21FileSize,
		Seed:     seedBase,
		Duration: d,
	}, agentsOf(cls))
	ph := AvailabilityPhase{Name: name, Wall: res.Wall, Victim: &obs.Histogram{}, Survivor: &obs.Histogram{}}
	for i, ar := range res.PerAgent {
		hist, ok, bad := ph.Survivor, &ph.SurvivorOK, &ph.SurvivorErr
		if cls[i].shard == victim {
			hist, ok, bad = ph.Victim, &ph.VictimOK, &ph.VictimErr
		}
		hist.Merge(ar.Latency)
		*ok += int64(ar.OK)
		*bad += int64(ar.Failed)
	}
	return ph
}

// KillResult is the kill-a-server cell's outcome.
type KillResult struct {
	VictimShard int
	Phases      []AvailabilityPhase // before, down, recovered
	// LeaseBroken reports that the transaction leased through the victim
	// shard was broken by the lease sweeper while the server was
	// unreachable (its client could not renew).
	LeaseBroken bool
	// CompetitorAcquired reports that after the restart a second client
	// obtained the lock the dead client's transaction had held.
	CompetitorAcquired bool
}

// KillServerRun executes the kill-a-server cell: 3 shards, clients pinned
// across them, a transaction holding a network lock through the victim
// shard. Mid-run the victim's TCP server is killed; the surviving shards
// keep serving, the dead shard's lease expires and its transaction's locks
// are broken, and after a restart the victim's clients fail over (their
// transports re-dial) and a competitor wins the freed lock.
func KillServerRun(phase time.Duration) (*KillResult, error) {
	const (
		servers  = 3
		clients  = 12
		victim   = 1
		leaseTTL = 150 * time.Millisecond
		seedBase = 1000
	)
	rig, cls, cleanup, err := e21Setup(servers, clients, leaseTTL, 3)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	// No injected service time here: the cell is about availability, not
	// capacity.
	res := &KillResult{VictimShard: victim}

	// A client holds a lock through the victim shard; its renewals stop
	// when the server dies (the transport has nowhere to deliver them).
	lcDead := cluster.NewLockClient(cls[0].Router.Lock(victim), 9001, leaseTTL, nil)
	defer lcDead.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	item := lock.ItemID{File: 7, Offset: 0, Length: 64}
	if err := lcDead.Acquire(ctx, 900, 1, lock.Record, item, lock.IWrite); err != nil {
		return nil, fmt.Errorf("lease-holder acquire: %w", err)
	}

	res.Phases = append(res.Phases, runPhase("before", phase, cls, victim, seedBase))

	rig.nodes[victim].Kill()
	res.Phases = append(res.Phases, runPhase("down", phase, cls, victim, seedBase))
	// The victim's lease sweeper ran throughout the outage: the unrenewed
	// lease expired and the transaction's locks were broken (§6.4's break
	// path, driven by client liveness instead of lock age).
	res.LeaseBroken = rig.nodes[victim].Facility.Locks().Broken(900)

	if err := rig.nodes[victim].Restart(); err != nil {
		return nil, fmt.Errorf("restart shard %d: %w", victim, err)
	}
	res.Phases = append(res.Phases, runPhase("recovered", phase, cls, victim, seedBase))

	// With the server back and the dead client's locks broken, a second
	// client wins the lock.
	lcComp := cluster.NewLockClient(cls[1].Router.Lock(victim), 9002, leaseTTL, nil)
	defer lcComp.Close()
	acqCtx, acqCancel := context.WithTimeout(ctx, 10*time.Second)
	err = lcComp.Acquire(acqCtx, 901, 2, lock.Record, item, lock.IWrite)
	acqCancel()
	res.CompetitorAcquired = err == nil
	return res, nil
}

// E21ScaleOut measures multi-node scale-out: aggregate closed-loop
// throughput as servers grow 1→8 under a fixed 24-client population,
// open-loop latency under and over the cluster's capacity, and the
// kill-a-server availability cell.
func E21ScaleOut() (*Table, error) {
	t := &Table{
		ID:      "E21",
		Title:   "Multi-node scale-out: sharded namespace, routed clients, leased locks",
		Claim:   "aggregate throughput grows with server count until clients are the bound; killing one shard leaves the rest serving and expires the dead shard's leases",
		Columns: []string{"cell", "servers", "clients", "ok", "err", "wall", "ops/sec", "p95", "note"},
	}
	var base float64
	for _, servers := range []int{1, 2, 4, 8} {
		res, err := ScaleRun(servers, e21Clients, e21OpsPerAgent, 0, 0)
		if err != nil {
			return nil, err
		}
		opsPerSec := res.OpsPerSec()
		note := "baseline"
		if servers == 1 {
			base = opsPerSec
		} else if base > 0 {
			note = fmt.Sprintf("%.1fx vs 1 server", opsPerSec/base)
		}
		t.AddRow("closed-loop", servers, e21Clients, res.Ops, 0, res.Wall,
			fmt.Sprintf("%.0f", opsPerSec), res.Latency.Quantile(0.95), note)
	}

	// Open-loop: the same 2-server rig offered half and quadruple its
	// measured ~8k ops/s capacity (each agent-level operation costs one
	// server request against 16 pooled workers). Under overload the offered
	// rate is not met and latency (measured from scheduled arrival) shows
	// the queueing.
	for _, cell := range []struct {
		name string
		rate float64
	}{{"open-loop under", 4000}, {"open-loop over", 32000}} {
		res, err := ScaleRun(2, e21Clients, 0, cell.rate, 400*time.Millisecond)
		if err != nil {
			return nil, err
		}
		note := fmt.Sprintf("offered %.0f/s, completed %d of %d", cell.rate, res.Ops, res.Offered)
		t.AddRow(cell.name, 2, e21Clients, res.Ops, 0, res.Wall,
			fmt.Sprintf("%.0f", res.OpsPerSec()), res.Latency.Quantile(0.95), note)
	}

	kr, err := KillServerRun(400 * time.Millisecond)
	if err != nil {
		return nil, err
	}
	for _, ph := range kr.Phases {
		note := fmt.Sprintf("victim %d ok / %d err", ph.VictimOK, ph.VictimErr)
		if ph.Name == "down" {
			note += fmt.Sprintf("; lease broken=%v", kr.LeaseBroken)
		}
		if ph.Name == "recovered" {
			note += fmt.Sprintf("; competitor lock=%v", kr.CompetitorAcquired)
		}
		t.AddRow("kill-server/"+ph.Name, 3, 12, ph.SurvivorOK+ph.VictimOK,
			ph.SurvivorErr+ph.VictimErr, ph.Wall, "—", "—", note)
	}

	fr, err := FailoverRun(400 * time.Millisecond)
	if err != nil {
		return nil, err
	}
	for _, ph := range fr.Phases {
		note := fmt.Sprintf("victim %d ok / %d err, p50 %v p99 %v",
			ph.VictimOK, ph.VictimErr, ph.Victim.Quantile(0.50), ph.Victim.Quantile(0.99))
		if ph.Name == "failover" {
			note += fmt.Sprintf("; promoted=%v", fr.Promoted)
		}
		ok := ph.SurvivorOK + ph.VictimOK
		t.AddRow("failover/"+ph.Name, 3, 9, ok, ph.SurvivorErr+ph.VictimErr, ph.Wall,
			fmt.Sprintf("%.0f", float64(ok)/ph.Wall.Seconds()), ph.Survivor.Quantile(0.95), note)
	}

	t.Notes = append(t.Notes,
		fmt.Sprintf("each server: %d workers, %s injected service time → ~%d ops/s capacity; %d closed-loop clients",
			e21WorkersPerServer, e21ServiceTime, e21WorkersPerServer*int(time.Second/e21ServiceTime), e21Clients),
		"namespace sharded by parent-directory hash; clients route via the versioned shard map and follow wrong-shard redirects",
		"client files pinned round-robin across shards so every scaling cell loads all servers",
		"kill cell: the victim's TCP server closes mid-run; survivors keep serving, the victim's unrenewed lock lease expires (sweeper breaks the txn), and after restart its clients' transports re-dial and fail over",
		fmt.Sprintf("failover cell: shard 1 runs as a replicated primary/backup pair (repl TTL %s); the primary dies whole mid-run and the backup self-promotes — the outage is a victim-side latency tail, not failed operations", failoverReplTTL),
		fmt.Sprintf("failover promotion window %v, measured kill→promote from the backup's event log (promoted=%v) — not inferred from the p99 tail", fr.PromotionWindow.Round(time.Millisecond), fr.Promoted),
		"open-loop rows measure latency from each operation's scheduled arrival, so overload shows up as queueing delay and unmet offered load")
	return t, nil
}
