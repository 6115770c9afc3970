package node

import (
	"repro/internal/agent"
	"repro/internal/ccache"
	"repro/internal/cluster"
	"repro/internal/fileservice"
	"repro/internal/obs"
)

// ClientConfig describes one client process's stack.
type ClientConfig struct {
	// Endpoints is the cluster's server list in shard order (one entry for
	// a solo server) and Backups the optional per-shard backup list the
	// router fails over to.
	Endpoints []string
	Backups   []string
	// ClientID identifies this client to every server's duplicate cache and
	// lease table. Required, unique per live client.
	ClientID uint64
	// Retries is the per-call rpc retry budget (the router's default when
	// zero); size it to span a promotion window when failover is expected.
	Retries int
	// Cache puts the coherent client cache between the agent and the
	// router: lease-protected local reads, write-back, recall callbacks.
	Cache bool
	// Obs receives router, cache and agent telemetry. Optional.
	Obs *obs.Recorder
}

// Client is one dialed client stack.
type Client struct {
	// Router reaches the naming service and the shards.
	Router *cluster.Router
	// Cache is the coherent client cache; nil unless ClientConfig.Cache.
	Cache *ccache.Client
	// Files is the file service the stack presents: Cache when there is one,
	// Router otherwise.
	Files agent.FileService

	rec *obs.Recorder
}

// Dial builds the client stack. Connections are lazy: the first call to
// each shard pays its dial, so Dial succeeds with servers still booting.
func Dial(cfg ClientConfig) (*Client, error) {
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Endpoints: cfg.Endpoints,
		Backups:   cfg.Backups,
		ClientID:  cfg.ClientID,
		Retries:   cfg.Retries,
		Obs:       cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	c := &Client{Router: rt, Files: rt, rec: cfg.Obs}
	if cfg.Cache {
		cc, err := ccache.New(ccache.Config{Inner: rt, Lease: rt, ClientID: cfg.ClientID, Obs: cfg.Obs})
		if err != nil {
			rt.Shutdown()
			return nil, err
		}
		// Recall pushes carry the shard's raw file ID; the cache keys files
		// by routed ID, so re-route before delivering. A dead connection may
		// have cost any lease held through it.
		rt.SetPushSink(func(shard int, method string, body []byte) {
			if method != ccache.MRecall {
				return
			}
			if file, ver, err := ccache.DecodeRecall(body); err == nil {
				cc.Recall(fileservice.FileID(cluster.RoutedID(shard, file)), ver)
			}
		}, func(int, error) { cc.DropLeases(nil) })
		c.Cache, c.Files = cc, cc
	}
	return c, nil
}

// NewMachine creates an agent machine over the stack, the wire counterpart
// of core.Cluster.NewMachine: the agents over this stack's client cache when
// it has one, and without it every operation crosses the wire. Construction
// registers the machine's devices with the naming service, so shard 0 must
// be reachable.
func (c *Client) NewMachine() (*agent.Machine, error) {
	return agent.NewMachine(agent.MachineConfig{Naming: c.Router, Files: c.Files, Obs: c.rec})
}

// Close writes back whatever the cache still holds dirty and hands its
// leases back — so the next client does not pay a recall against an exited
// process — then closes the connections. It returns the write-back error.
func (c *Client) Close() error {
	var err error
	if c.Cache != nil {
		err = c.Cache.Shutdown()
	}
	c.Router.Shutdown()
	return err
}
