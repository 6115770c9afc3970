package experiments

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/node"
	"repro/internal/obs"
)

// E21's failover cell: one shard of the scale-out rig runs as a replicated
// primary/backup pair, the primary is killed mid-load, and the cell measures
// what the paper's availability claim actually promises — the victim shard's
// clients stall for roughly one replication TTL and then keep going against
// the promoted backup, with no failed operations required and no lost acks.
const (
	failoverReplTTL = 150 * time.Millisecond
	// failoverRetries sizes each client's rpc retry budget so it spans the
	// promotion window: retries alternate primary/backup with backoff
	// 5→100 ms, so ~25 attempts cover well over a second of outage while
	// the watchdog promotes after failoverReplTTL (~150 ms + one tick).
	failoverRetries = 25
)

// failoverRig is the replicated variant of shardRig: `servers` primary
// shards plus one hot backup paired with the victim shard. The backup is
// started and listening before the victim primary boots, so the first
// shipped batch finds it.
type failoverRig struct {
	nodes  []*node.Node
	injs   []*fault.Injector
	recs   []*obs.Recorder // per-shard server recorders (spans, events, repl metrics)
	backup *node.Node
	bRec   *obs.Recorder // backup's recorder: holds the promote event
	m      cluster.Map
	victim int
}

// newFailoverRig boots `servers` shards with shard `victim` replicated to a
// hot backup under the given replication TTL.
func newFailoverRig(servers, victim int, leaseTTL, replTTL time.Duration) (*failoverRig, error) {
	lns, addrs, err := listenLoopback(servers + 1)
	if err != nil {
		return nil, err
	}
	bLn := lns[servers]
	lns, addrs = lns[:servers], addrs[:servers:servers]
	backups := make([]string, servers)
	backups[victim] = bLn.Addr().String()
	r := &failoverRig{victim: victim, bRec: obs.New(),
		m: cluster.Map{Version: 1, Endpoints: addrs, Backups: backups}}

	// The backup first: it must be applying before the primary ships.
	r.backup, err = node.Start(node.Config{
		Facility: rigFacility(r.bRec),
		Shard:    victim,
		Map:      r.m,
		Role:     cluster.RoleBackup,
		LeaseTTL: leaseTTL,
		ReplTTL:  replTTL,
		Listener: bLn,
		Workers:  e21WorkersPerServer,
		Window:   4096,
	})
	if err != nil {
		for _, ln := range lns {
			_ = ln.Close()
		}
		return nil, err
	}
	r.nodes, err = startNodes(r.m, lns, func(i int) node.Config {
		rec, inj := obs.New(), fault.NewInjector(0)
		r.recs, r.injs = append(r.recs, rec), append(r.injs, inj)
		cfg := node.Config{
			Facility: rigFacility(rec),
			LeaseTTL: leaseTTL,
			Fault:    inj,
			Workers:  e21WorkersPerServer,
			Window:   4096,
		}
		if i == victim {
			cfg.Role, cfg.ReplTTL = cluster.RolePrimary, replTTL
		}
		return cfg
	})
	if err != nil {
		_ = r.backup.Close()
		return nil, err
	}
	return r, nil
}

// killPrimary takes the victim primary down whole — TCP server, service
// (heartbeats and ship stream die with it), its link to the backup, its
// facility. The backup's watchdog promotes after the replication TTL of
// silence.
func (r *failoverRig) killPrimary() { _ = r.nodes[r.victim].Close() }

// promoted reports whether the backup has taken the victim shard over.
func (r *failoverRig) promoted() bool {
	return r.backup.Service.Role() == cluster.RolePrimary
}

func (r *failoverRig) close() {
	closeNodes(r.nodes)
	_ = r.backup.Close()
}

// FailoverResult is the failover cell's outcome.
type FailoverResult struct {
	VictimShard int
	// Promoted reports that the backup answered as the shard's primary by
	// the end of the outage phase.
	Promoted bool
	// PromotionWindow is the measured unavailability window: from the
	// primary's kill to the backup's "promote" event (from its event log) —
	// the ground truth the latency-tail eyeballing used to approximate.
	PromotionWindow time.Duration
	// Events is the backup's event log (promotion, lease breaks, ...).
	Events []obs.Event
	Phases []AvailabilityPhase // before, failover, after
}

// FailoverRun executes the zero-unavailability failover cell: 3 shards with
// shard 1 replicated to a hot backup, 9 clients pinned across them. Mid-run
// the victim primary dies whole; its clients' calls retry through the
// promotion window (their transports alternate primary/backup) and land on
// the promoted backup, so the outage shows up as a victim-side latency tail
// — not as failed operations, the dark slice the unreplicated kill cell has.
func FailoverRun(phase time.Duration) (*FailoverResult, error) {
	const (
		servers  = 3
		clients  = 9
		victim   = 1
		leaseTTL = 500 * time.Millisecond
	)
	rig, err := newFailoverRig(servers, victim, leaseTTL, failoverReplTTL)
	if err != nil {
		return nil, err
	}
	defer rig.close()

	cls, closeClients, err := dialPinned(rig.m, clients, failoverRetries, 0, "fo", nil)
	defer closeClients()
	if err != nil {
		return nil, err
	}

	return rig.runPhases(cls, phase), nil
}

// runPhases drives the three phases of a failover cell — before, the
// primary's death, after — and reads the promotion window off the backup's
// event log. Victim-side errors are tolerated (counted) but with a retry
// budget spanning the promotion window they should not occur — that is the
// zero-unavailability claim under test.
func (r *failoverRig) runPhases(cls []e21Client, phase time.Duration) *FailoverResult {
	const seedBase = 2000
	res := &FailoverResult{VictimShard: r.victim}
	res.Phases = append(res.Phases, runPhase("before", phase, cls, r.victim, seedBase))

	killAt := time.Now()
	r.killPrimary()
	// The failover phase covers the outage: the watchdog promotes the backup
	// after the replication TTL of silence, well inside the phase.
	res.Phases = append(res.Phases, runPhase("failover", phase, cls, r.victim, seedBase))
	res.Promoted = r.promoted()

	res.Phases = append(res.Phases, runPhase("after", phase, cls, r.victim, seedBase))
	res.Events = r.bRec.Events()
	for _, e := range res.Events {
		if e.Name == "promote" {
			res.PromotionWindow = time.Duration(e.WallUnixNS - killAt.UnixNano())
			break
		}
	}
	return res
}
