package cluster

import (
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fit"
	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/simclock"
)

// TestMetricNamesAudit statically audits the metric registry: every name
// the cluster and replication layers record must be listed exactly once and
// follow the cluster./repl. naming scheme the fleet scraper documents.
func TestMetricNamesAudit(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range MetricNames {
		if name == "" {
			t.Fatal("empty metric name in MetricNames")
		}
		if seen[name] {
			t.Fatalf("duplicate metric name %q", name)
		}
		seen[name] = true
		if !strings.HasPrefix(name, "cluster.") && !strings.HasPrefix(name, "repl.") {
			t.Fatalf("metric %q outside the cluster./repl. namespaces", name)
		}
		if strings.HasSuffix(name, "_ns") {
			continue // latency histograms; counters and gauges below
		}
	}
	// The registry must cover both server- and client-side families.
	for _, want := range []string{"cluster.lease.", "cluster.router.", "cluster.repl.", "repl."} {
		found := false
		for _, name := range MetricNames {
			if strings.HasPrefix(name, want) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no metric under the %q family", want)
		}
	}
}

// obsRig is newRig with a recorder wired into every layer that records
// cluster metrics: the service, the router, and the lock clients.
func newObsRig(t *testing.T, shards int, leaseTTL time.Duration, rec *obs.Recorder) *rig {
	t.Helper()
	r := &rig{clk: simclock.New()}
	lns := make([]net.Listener, shards)
	eps := make([]string, shards)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		eps[i] = ln.Addr().String()
	}
	r.m = Map{Version: 1, Endpoints: eps}
	for i := 0; i < shards; i++ {
		// A long LT keeps the lock manager's own deadlock timeout out of
		// the lease tests.
		c, err := core.New(core.Config{LT: 30 * time.Second, Clock: r.clk})
		if err != nil {
			t.Fatal(err)
		}
		r.cores = append(r.cores, c)
		svc, err := NewService(overFS(c, ServiceConfig{
			Shard:    i,
			Map:      r.m,
			Locks:    c.Locks(),
			LeaseTTL: leaseTTL,
			Obs:      rec,
		}))
		if err != nil {
			t.Fatal(err)
		}
		r.svcs = append(r.svcs, svc)
		r.srvs = append(r.srvs, rpc.Serve(lns[i], endpointOf(svc)))
	}
	t.Cleanup(func() {
		for i := range r.srvs {
			_ = r.srvs[i].Close()
			r.svcs[i].Close()
			_ = r.cores[i].Close()
		}
	})
	return r
}

// auditRecorded asserts that every cluster./repl. name the flow recorded is
// a registered MetricNames entry — the dynamic half of the audit: code
// cannot invent a metric the registry (and so the scraper docs) missed.
func auditRecorded(t *testing.T, rec *obs.Recorder) {
	t.Helper()
	registered := map[string]bool{}
	for _, name := range MetricNames {
		registered[name] = true
	}
	p := rec.Profile()
	for name := range p.Gauges {
		if (strings.HasPrefix(name, "cluster.") || strings.HasPrefix(name, "repl.")) && !registered[name] {
			t.Errorf("gauge %q recorded but missing from MetricNames", name)
		}
	}
	for _, v := range p.Values {
		if (strings.HasPrefix(v.Name, "cluster.") || strings.HasPrefix(v.Name, "repl.")) && !registered[v.Name] {
			t.Errorf("value histogram %q recorded but missing from MetricNames", v.Name)
		}
	}
}

// TestLeaseMetricsRecorded drives the full lock-lease life cycle — grant,
// background renewals, explicit release, and a sweeper break — and checks
// each transition shows up under its registered counter and the break lands
// in the event log.
func TestLeaseMetricsRecorded(t *testing.T) {
	const ttl = 60 * time.Millisecond
	rec := obs.New()
	r := newObsRig(t, 1, ttl, rec)
	rt, err := NewRouter(RouterConfig{Endpoints: r.m.Endpoints, ClientID: 900, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)

	lc1 := NewLockClient(rt.Lock(0), 901, ttl, r.clk, nil)
	defer lc1.Close()
	lc2 := NewLockClient(rt.Lock(0), 902, ttl, r.clk, nil)
	defer lc2.Close()
	item := lock.ItemID{File: 1, Offset: 0, Length: 100}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := lc1.Acquire(ctx, 1, 1, lock.Record, item, lock.IWrite); err != nil {
		t.Fatal(err)
	}
	// Let the renewer run a few cycles so the renew counter fills.
	r.clk.Advance(3 * ttl)
	// Client 1 goes silent; the sweeper breaks its lease and client 2 gets
	// the lock, which it then releases cleanly.
	lc1.Close()
	r.expire(t, ttl, 1)
	if err := lc2.Acquire(ctx, 2, 2, lock.Record, item, lock.IWrite); err != nil {
		t.Fatalf("acquire after expiry: %v", err)
	}
	if err := lc2.Release(2); err != nil {
		t.Fatal(err)
	}

	p := rec.Profile()
	for _, want := range []struct {
		name string
		min  int64
	}{
		{MetricLeaseGrants, 2},   // lc1's lease + lc2's lease
		{MetricLeaseRenews, 1},   // lc1 renewed at least once before going silent
		{MetricLeaseReleases, 1}, // lc2's explicit release
		{MetricLeaseExpired, 1},  // the sweeper broke lc1's lease
	} {
		if got := p.Gauges[want.name]; got < want.min {
			t.Errorf("%s = %d, want >= %d", want.name, got, want.min)
		}
	}
	var broke bool
	for _, e := range rec.Events() {
		if e.Name == "lease-break" {
			broke = true
		}
	}
	if !broke {
		t.Error("sweeper did not log a lease-break event")
	}
	auditRecorded(t, rec)
}

// TestRouterRedirectMetricsRecorded scrambles a router's notion of shard
// homes (endpoints swapped) so every path op draws a not-mine redirect, and
// checks the redirect counter and map-refresh histogram fill — and that
// both names are registered.
func TestRouterRedirectMetricsRecorded(t *testing.T) {
	srvRec, rtRec := obs.New(), obs.New()
	r := newObsRig(t, 2, 0, srvRec)
	scrambled := []string{r.m.Endpoints[1], r.m.Endpoints[0]}
	rt, err := NewRouter(RouterConfig{Endpoints: scrambled, ClientID: 910, Obs: rtRec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)

	// Every create lands on the wrong server and bounces; the map refresh
	// the redirect triggers cannot fix the swapped table (same version), so
	// the op ultimately fails — the point is the telemetry trail.
	_, err = rt.CreatePath(fit.Attributes{}, fmt.Sprintf("/audit%d/f", 0))
	if err == nil {
		// A same-version map cannot be installed, but if the server's map
		// happened to supersede, the create legitimately succeeds. Either
		// way at least one redirect was followed first.
		t.Log("create succeeded after redirect")
	}
	p := rtRec.Profile()
	if p.Gauges[MetricRouterRedirects] < 1 {
		t.Errorf("%s = %d, want >= 1", MetricRouterRedirects, p.Gauges[MetricRouterRedirects])
	}
	var refresh bool
	for _, v := range p.Values {
		if v.Name == MetricRouterMapRefresh && v.Count > 0 {
			refresh = true
		}
	}
	if !refresh {
		t.Errorf("no %s samples recorded", MetricRouterMapRefresh)
	}
	auditRecorded(t, rtRec)
	auditRecorded(t, srvRec)
}
