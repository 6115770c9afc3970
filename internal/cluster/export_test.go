package cluster

import "repro/internal/replication"

// MetricNames lists every metric name the cluster and replication layers
// record, for the metric-name audit.
var MetricNames = []string{
	MetricReplLagNS,
	MetricReplHeartbeatGap,
	MetricLeaseGrants,
	MetricLeaseRenews,
	MetricLeaseReleases,
	MetricLeaseExpired,
	MetricRouterRedirects,
	MetricRouterMapRefresh,
	MetricRouterRebinds,

	replication.MetricShipBatchRecords,
	replication.MetricShipBatchBytes,
	replication.MetricShipNS,
	replication.MetricApplyNS,
}

// Len returns the number of live leases.
func (t *LeaseTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.leases)
}

// Map returns the router's current shard map.
func (r *Router) Map() Map {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.cur
}
