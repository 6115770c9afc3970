package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/ccache"
	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/metrics"
	"repro/internal/naming"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/rpcfs"
)

// redirectAttempts bounds the refresh-and-retry loop a shard redirect
// triggers; with a static map one hop settles it, the slack covers a map
// version racing in between.
const redirectAttempts = 3

// routerAttemptTimeout bounds each attempt of a routed call. Past it the
// shard's server is treated as gone: the connection drops, and the retry
// re-dials through the failover resolver, as a "not primary" answer does.
// It is DefaultLeaseTTL, the silence a server allows a client before it
// breaks the client's locks, and it sits above every legitimate wait on the
// server: a recall's inline wait (at most ccache.DefaultRecallWait), a lock
// try (never blocks), and a replicated write waiting out a silent backup
// (answered on the retry, which the endpoint holds until the original
// completes). A variable only so that tests can shorten it.
var routerAttemptTimeout = DefaultLeaseTTL

// RouterConfig configures a client-side shard router.
type RouterConfig struct {
	// Endpoints is the bootstrap server list, one address per shard, in
	// shard order. Required.
	Endpoints []string
	// ClientID identifies this agent instance to every server's duplicate
	// cache. Required, unique per router.
	ClientID uint64
	// Retries is the per-call rpc retry budget (default 10).
	Retries int
	// Backups is the bootstrap backup list, one address per shard in shard
	// order ("" for shards without a backup). Optional; when set its length
	// must match Endpoints. A shard with a backup fails over: on connection
	// errors or not-primary rejections the shard's transport alternates
	// between the pair until one answers as primary.
	Backups []string
	// Wire is inert: bench/rig.go sets it, ROADMAP item 8 deletes it.
	Wire rpc.WireFormat
	// Metrics receives rpc client counters. Optional.
	Metrics *metrics.Set
	// Obs, when set, receives router telemetry: per-shard routing spans on
	// the traced read/write path, redirect and rebind counters, and the
	// map-refresh latency histogram. Optional.
	Obs *obs.Recorder
}

// Router implements the agent service interfaces (FileService, NameService,
// PathCreator) across a cluster of shard servers: one multiplexed
// connection per server, attributed names routed to their home shard,
// system names tagged with the shard index (RoutedID) so ID-addressed
// operations need no name lookup, and shard redirects retried after a map
// refresh.
type Router struct {
	trs    []*rpc.TCPTransport
	rcs    []*rpc.Client
	fs     []*rpcfs.Client
	leases []*ccache.DirectLease
	rec    *obs.Recorder

	// sink receives server pushes (lease recalls) and connection-death
	// notices from every shard connection. Installed after construction
	// (SetPushSink) because the consumer — the client cache — is built on
	// top of the router; the dial-time handlers read it atomically, so
	// pushes survive failover re-dials without rewiring.
	sink atomic.Pointer[pushSink]

	mu  sync.RWMutex
	cur Map // current shard map (bootstrap until a server serves a newer one)

	rr atomic.Uint64 // round-robin counter for anonymous creates
}

// pushSink is the router's installed push/conn-down fan-in.
type pushSink struct {
	onPush func(shard int, method string, body []byte)
	onDown func(shard int, err error)
}

var (
	_ agent.FileService     = (*Router)(nil)
	_ agent.NameService     = (*Router)(nil)
	_ agent.PathCreator     = (*Router)(nil)
	_ ccache.LeaseTransport = (*Router)(nil)
)

// NewRouter dials every endpoint and returns the router. Dialing is lazy —
// the first call pays the dial — so construction succeeds even with servers
// still booting (or a dead primary whose backup will take over). Each
// shard's transport re-resolves its address from the current map on every
// re-dial, alternating with the shard's backup when one exists, and
// not-primary rejections (an unpromoted backup, a fenced ex-primary) are
// retried the same way, so a failover is invisible to callers beyond
// latency.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Endpoints) == 0 {
		return nil, errors.New("cluster: no endpoints")
	}
	if cfg.ClientID == 0 {
		return nil, errors.New("cluster: zero client ID")
	}
	if len(cfg.Backups) != 0 && len(cfg.Backups) != len(cfg.Endpoints) {
		return nil, fmt.Errorf("cluster: %d backup addresses for %d shards", len(cfg.Backups), len(cfg.Endpoints))
	}
	retries := cfg.Retries
	if retries <= 0 {
		retries = 10
	}
	r := &Router{cur: Map{Endpoints: cfg.Endpoints, Backups: cfg.Backups}, rec: cfg.Obs}
	for i, addr := range cfg.Endpoints {
		shard := i
		tr, err := rpc.DialTCP(addr,
			rpc.WithLazyDial(),
			rpc.WithAddrResolver(func(prev string) string { return r.failoverAddr(shard, prev) }),
			rpc.WithPushHandler(func(method string, body []byte) {
				if s := r.sink.Load(); s != nil && s.onPush != nil {
					s.onPush(shard, method, body)
				}
			}),
			rpc.WithConnDown(func(err error) {
				if s := r.sink.Load(); s != nil && s.onDown != nil {
					s.onDown(shard, err)
				}
			}))
		if err != nil {
			r.Shutdown()
			return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
		}
		rc := rpc.NewClient(tr, cfg.ClientID, retries, cfg.Metrics)
		rc.SetAttemptTimeout(routerAttemptTimeout)
		rc.SetRetryOn(func(se *rpc.ServiceError) bool { return IsNotReady(se) })
		r.trs = append(r.trs, tr)
		r.rcs = append(r.rcs, rc)
		r.fs = append(r.fs, &rpcfs.Client{C: rc})
		r.leases = append(r.leases, &ccache.DirectLease{C: rc})
	}
	return r, nil
}

// SetPushSink installs the router's push fan-in: onPush receives every
// server push (shard index, method, body — the body is only valid for the
// duration of the call), onDown fires once per shard-connection death.
// Either may be nil. The client cache wires its recall handler and its
// drop-leases-on-disconnect hook here; installing after construction is
// safe because the handlers read the sink atomically.
func (r *Router) SetPushSink(onPush func(shard int, method string, body []byte), onDown func(shard int, err error)) {
	r.sink.Store(&pushSink{onPush: onPush, onDown: onDown})
}

// failoverAddr picks the address for a shard connection's next dial: the
// shard's current map endpoint, or — when the previous dial used exactly
// that endpoint and the shard has a backup — the backup, so re-dials
// alternate between the pair until one of them answers as primary. It runs
// under the transport's lock and only reads the router's map.
func (r *Router) failoverAddr(shard int, prev string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p := r.cur.Endpoints[shard]
	if b := r.cur.Backup(shard); b != "" && prev == p {
		r.rec.Gauge(MetricRouterRebinds).Inc()
		return b
	}
	return p
}

// Shutdown closes every server connection. (Close is the FileService
// descriptor operation.)
func (r *Router) Shutdown() {
	for _, tr := range r.trs {
		_ = tr.Close()
	}
}

// Lock returns the raw rpc client for one shard, for layering the network
// lock service (LockClient) over the same multiplexed connection.
func (r *Router) Lock(shard int) *rpc.Client { return r.rcs[shard] }

// shards returns the shard count of the current map.
func (r *Router) shards() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.cur.Endpoints)
}

// refreshMap pulls the shard map from the server that issued a redirect —
// it is the one that knows a newer version — and installs it if it
// supersedes the current one. The shard count is fixed for the life of the
// router (connections are per-shard), so maps with a different endpoint
// count are ignored; the endpoints themselves may change, which is how a
// promotion or fencing reaches the failover address resolver.
func (r *Router) refreshMap(from int) {
	t0 := time.Now()
	body, err := r.rcs[from].Call(context.Background(), MMap, nil)
	r.rec.ValueHist(MetricRouterMapRefresh).Record(time.Since(t0))
	if err != nil {
		return
	}
	m, err := decodeMap(body)
	r.rcs[from].ReleaseBody(body)
	if err != nil {
		return
	}
	r.mu.Lock()
	installed := m.Version > r.cur.Version && len(m.Endpoints) == len(r.cur.Endpoints)
	if installed {
		r.cur = m
	}
	r.mu.Unlock()
	if installed {
		r.rec.Eventf("rebind", "installed map v%d from shard %d", m.Version, from)
	}
}

// withPath runs fn against path's home shard, following at most
// redirectAttempts shard redirects: each redirect refreshes the map from
// the redirecting server, then retries against the shard the redirect
// named.
func (r *Router) withPath(path string, fn func(c *rpcfs.Client, shard int) error) error {
	shard := ShardForPath(path, r.shards())
	var err error
	for attempt := 0; attempt < redirectAttempts; attempt++ {
		err = fn(r.fs[shard], shard)
		home, redirected := ParseNotMine(err)
		if !redirected {
			return err
		}
		r.rec.Gauge(MetricRouterRedirects).Inc()
		r.refreshMap(shard)
		if home < 0 || home >= len(r.fs) {
			return err
		}
		shard = home
	}
	return err
}

// conn splits a routed system name into the owning shard's client and the
// raw per-server ID.
func (r *Router) conn(id fileservice.FileID) (*rpcfs.Client, fileservice.FileID, error) {
	shard, raw := SplitID(uint64(id))
	if shard >= len(r.fs) {
		return nil, 0, fmt.Errorf("cluster: system name %#x routes to unknown shard %d", uint64(id), shard)
	}
	return r.fs[shard], fileservice.FileID(raw), nil
}

// CreatePath creates a file and registers its name in one message on the
// path's home shard (agent.PathCreator).
func (r *Router) CreatePath(attr fit.Attributes, path string) (fileservice.FileID, error) {
	var routed fileservice.FileID
	err := r.withPath(path, func(c *rpcfs.Client, shard int) error {
		raw, err := c.CreatePath(attr, path)
		if err != nil {
			return err
		}
		routed = fileservice.FileID(RoutedID(shard, uint64(raw)))
		return nil
	})
	return routed, err
}

// Create creates an anonymous (unregistered) file on a round-robin shard.
func (r *Router) Create(attr fit.Attributes) (fileservice.FileID, error) {
	// Reduce modulo in uint64: converting the raw counter first would go
	// negative after wraparound on 32-bit platforms.
	shard := int(r.rr.Add(1) % uint64(r.shards()))
	raw, err := r.fs[shard].Create(attr)
	if err != nil {
		return 0, err
	}
	return fileservice.FileID(RoutedID(shard, uint64(raw))), nil
}

// Open implements agent.FileService.
func (r *Router) Open(id fileservice.FileID) error {
	c, raw, err := r.conn(id)
	if err != nil {
		return err
	}
	return c.Open(raw)
}

// Close implements agent.FileService: it closes one open file, not the
// router's connections (see Shutdown).
func (r *Router) Close(id fileservice.FileID) error {
	c, raw, err := r.conn(id)
	if err != nil {
		return err
	}
	return c.Close(raw)
}

// Delete implements agent.FileService.
func (r *Router) Delete(id fileservice.FileID) error {
	c, raw, err := r.conn(id)
	if err != nil {
		return err
	}
	return c.Delete(raw)
}

// ReadAtCtx implements agent.FileService. The routing hop is a
// cluster-layer span (or histogram observation) between the caller's span
// and the server's rpc serve span.
func (r *Router) ReadAtCtx(ctx context.Context, id fileservice.FileID, off int64, n int) ([]byte, error) {
	c, raw, err := r.conn(id)
	if err != nil {
		return nil, err
	}
	rctx, op := r.rec.StartOp(ctx, obs.LayerCluster, "readAt")
	out, err := c.ReadAtCtx(rctx, raw, off, n)
	op.End(err)
	return out, err
}

// WriteAtCtx implements agent.FileService; bracketed like ReadAtCtx.
func (r *Router) WriteAtCtx(ctx context.Context, id fileservice.FileID, off int64, data []byte) (int, error) {
	c, raw, err := r.conn(id)
	if err != nil {
		return 0, err
	}
	rctx, op := r.rec.StartOp(ctx, obs.LayerCluster, "writeAt")
	n, err := c.WriteAtCtx(rctx, raw, off, data)
	op.End(err)
	return n, err
}

// Truncate implements agent.FileService.
func (r *Router) Truncate(id fileservice.FileID, size int64) error {
	c, raw, err := r.conn(id)
	if err != nil {
		return err
	}
	return c.Truncate(raw, size)
}

// Attributes implements agent.FileService.
func (r *Router) Attributes(id fileservice.FileID) (fit.Attributes, error) {
	c, raw, err := r.conn(id)
	if err != nil {
		return fit.Attributes{}, err
	}
	return c.Attributes(raw)
}

// Size implements agent.FileService.
func (r *Router) Size(id fileservice.FileID) (int64, error) {
	c, raw, err := r.conn(id)
	if err != nil {
		return 0, err
	}
	return c.Size(raw)
}

// leaseConn splits a routed file ID into the owning shard's lease
// transport and the raw per-server ID.
func (r *Router) leaseConn(file uint64) (*ccache.DirectLease, uint64, int, error) {
	shard, raw := SplitID(file)
	if shard >= len(r.leases) {
		return nil, 0, 0, fmt.Errorf("cluster: system name %#x routes to unknown shard %d", file, shard)
	}
	return r.leases[shard], raw, shard, nil
}

// AcquireLease implements ccache.LeaseTransport across shards: the routed
// file ID picks the owning shard's connection, and the raw ID crosses the
// wire. Failover is transparent — the shard client's not-primary retry
// rebinds toward the promoted backup, whose lease table already holds the
// replicated grants.
func (r *Router) AcquireLease(file, client uint64, mode byte) (ccache.Grant, error) {
	dl, raw, _, err := r.leaseConn(file)
	if err != nil {
		return ccache.Grant{}, err
	}
	return dl.AcquireLease(raw, client, mode)
}

// ReleaseLease implements ccache.LeaseTransport (see AcquireLease).
func (r *Router) ReleaseLease(file, client uint64) error {
	dl, raw, _, err := r.leaseConn(file)
	if err != nil {
		return err
	}
	return dl.ReleaseLease(raw, client)
}

// AckRecall implements ccache.LeaseTransport (see AcquireLease).
func (r *Router) AckRecall(file, client uint64) error {
	dl, raw, _, err := r.leaseConn(file)
	if err != nil {
		return err
	}
	return dl.AckRecall(raw, client)
}

// Register routes a naming entry to its home shard (agent.NameService). An
// entry whose system name is already routed must land on the shard its ID
// lives on — registering a file's name away from its data is refused.
func (r *Router) Register(e naming.Entry) error {
	path, hasPath := e.Name["path"]
	if !hasPath {
		// Pathless entries (devices) home on shard 0 by convention; their
		// system names stay untagged (RoutedID(0, x) == x).
		return r.fs[0].Register(e)
	}
	return r.withPath(path, func(c *rpcfs.Client, shard int) error {
		e2 := e
		if e.SystemName != 0 {
			owner, raw := SplitID(e.SystemName)
			if owner != shard {
				return fmt.Errorf("cluster: cannot register %q on shard %d: system name lives on shard %d",
					path, shard, owner)
			}
			e2.SystemName = raw
		}
		return c.Register(e2)
	})
}

// ResolvePath resolves an attributed path on its home shard, tagging the
// returned system name with the shard (agent.NameService).
func (r *Router) ResolvePath(path string) (naming.Entry, error) {
	var out naming.Entry
	err := r.withPath(path, func(c *rpcfs.Client, shard int) error {
		e, err := c.Resolve(path)
		if err != nil {
			return err
		}
		e.SystemName = RoutedID(shard, e.SystemName)
		out = e
		return nil
	})
	return out, err
}

// Resolve evaluates an attributed-name query (agent.NameService). A query
// carrying a path attribute routes to the home shard; anything else fans
// out to every shard and requires exactly one match, preserving the naming
// service's exactly-one semantics across the partition.
func (r *Router) Resolve(query naming.Name) (naming.Entry, error) {
	if _, ok := query["path"]; ok {
		// The wire protocol resolves by path; other attributes of a
		// path-carrying query are already part of the path's identity.
		return r.ResolvePath(query["path"])
	}
	var (
		found naming.Entry
		hits  int
	)
	for shard, c := range r.fs {
		e, err := c.ResolveQuery(query)
		if err != nil {
			if rpcfs.IsNotFound(err) {
				continue
			}
			return naming.Entry{}, err
		}
		e.SystemName = RoutedID(shard, e.SystemName)
		found = e
		hits++
	}
	switch hits {
	case 0:
		return naming.Entry{}, fmt.Errorf("cluster: no entry matches %s", query)
	case 1:
		return found, nil
	default:
		return naming.Entry{}, fmt.Errorf("cluster: %d entries match %s", hits, query)
	}
}

// UnregisterSystemName removes the registrations of a routed system name on
// its shard (agent.NameService).
func (r *Router) UnregisterSystemName(t naming.ObjectType, sys uint64) int {
	shard, raw := SplitID(sys)
	if shard >= len(r.fs) {
		return 0
	}
	n, err := r.fs[shard].UnregisterSys(t, raw)
	if err != nil {
		return 0
	}
	return n
}

// List merges one directory level across every shard: names in a directory
// may be homed anywhere once sub-directories diverge, so listing fans out
// and unions.
func (r *Router) List(dir string) ([]string, error) {
	seen := make(map[string]bool)
	for _, c := range r.fs {
		names, err := c.List(dir)
		if err != nil {
			return nil, err
		}
		for _, n := range names {
			seen[n] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out, nil
}
