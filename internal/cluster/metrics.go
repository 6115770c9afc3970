package cluster

// Named metrics the cluster layer records on the recorders handed in via
// ServiceConfig.Obs / RouterConfig.Obs. Counters are
// gauges incremented per occurrence; *_ns names are latency histograms in
// nanoseconds; heartbeat_gap_ns is a gauge holding the most recent observed
// silence on a backup's watchdog.
const (
	// Server side (ServiceConfig.Obs).
	MetricReplLagNS        = "cluster.repl.lag_ns"           // hist: group-commit wait for backup confirmation
	MetricReplHeartbeatGap = "cluster.repl.heartbeat_gap_ns" // gauge: backup watchdog's latest primary-silence reading
	MetricLeaseGrants      = "cluster.lease.grants"          // counter: lock leases minted
	MetricLeaseRenews      = "cluster.lease.renews"          // counter: successful lease renewals
	MetricLeaseReleases    = "cluster.lease.releases"        // counter: explicit lease releases
	MetricLeaseExpired     = "cluster.lease.expired"         // counter: leases broken by the sweeper

	// Client side (RouterConfig.Obs).
	MetricRouterRedirects  = "cluster.router.redirects"      // counter: not-mine redirects followed
	MetricRouterMapRefresh = "cluster.router.map_refresh_ns" // hist: shard-map refresh round trips
	MetricRouterRebinds    = "cluster.router.rebinds"        // counter: failover rebinds to a backup address
)
