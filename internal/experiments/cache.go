package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/baseline/bullet"
	"repro/internal/ccache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fit"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// e6Result bundles one configuration's measurements.
type e6Result struct {
	refs      int64
	agentHit  float64
	serverHit float64
	trackHit  float64
	sim       string
}

// E6CacheLevels reproduces §2.2/§5 (and the §1 Bullet criticism): caching at
// the agent, the file service and the disk service each avoids descending to
// the level below; a cache-less whole-file server pays the full disk cost on
// every re-read.
func E6CacheLevels() (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "Re-reading a 512 KB working set 8 times",
		Claim:   "each cache level absorbs re-reads; the Bullet baseline re-pays the disk every time",
		Columns: []string{"configuration", "disk refs", "agent hit%", "server hit%", "track hit%", "sim time"},
	}
	// 64 blocks against the client cache's 1 024 (ccache.DefaultBlocks): the
	// working set never reaches ccache's map-order eviction, which is what
	// keeps this virtual-time table identical from run to run.
	const fileSize = 512 << 10
	const rounds = 8

	configs := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"client+server+track caches", func(c *core.Config) {}},
		{"server+track (no client cache)", func(c *core.Config) { c.DisableClientCache = true }},
		{"track only (tiny server cache)", func(c *core.Config) {
			c.DisableClientCache = true
			c.ServerCacheBlocks = 1
		}},
		{"no caches", func(c *core.Config) {
			c.DisableClientCache = true
			c.ServerCacheBlocks = 1
			c.DisableReadAhead = true
		}},
	}
	for _, cfg := range configs {
		r, err := e6Rhodos(fileSize, rounds, cfg.mutate)
		if err != nil {
			return nil, fmt.Errorf("E6 %s: %w", cfg.name, err)
		}
		t.AddRow(cfg.name, r.refs,
			fmt.Sprintf("%.0f%%", r.agentHit*100),
			fmt.Sprintf("%.0f%%", r.serverHit*100),
			fmt.Sprintf("%.0f%%", r.trackHit*100), r.sim)
	}
	refs, sim, err := e6Bullet(fileSize, rounds)
	if err != nil {
		return nil, err
	}
	t.AddRow("Bullet-style (no caching, §1)", refs, "-", "-", "-", sim)
	t.Notes = append(t.Notes, "with all three levels, re-reads cost zero disk references")
	return t, nil
}

func e6Rhodos(fileSize, rounds int, mutate func(*core.Config)) (e6Result, error) {
	met := metrics.NewSet()
	rec := obs.New() // the machine's client cache counts its hits here
	cfg := core.Config{Metrics: met, Geometry: bigGeometry, Obs: rec}
	mutate(&cfg)
	c, err := core.New(cfg)
	if err != nil {
		return e6Result{}, err
	}
	defer func() { _ = c.Close() }()
	m, err := c.NewMachine()
	if err != nil {
		return e6Result{}, err
	}
	p := m.NewProcess()
	fa := m.FileAgent()
	fd, err := fa.Create(p, "/ws", fit.Attributes{})
	if err != nil {
		return e6Result{}, err
	}
	data := make([]byte, fileSize)
	rand.New(rand.NewSource(1)).Read(data)
	if _, err := fa.PWrite(p, fd, 0, data); err != nil {
		return e6Result{}, err
	}
	if err := c.Flush(); err != nil {
		return e6Result{}, err
	}
	c.InvalidateCaches()
	before := met.Snapshot()
	g0 := rec.Gauges()
	simBefore := met.SimTime()
	const chunk = 32 << 10
	for round := 0; round < rounds; round++ {
		for off := 0; off < fileSize; off += chunk {
			if _, err := fa.PRead(p, fd, int64(off), chunk); err != nil {
				return e6Result{}, err
			}
		}
	}
	d, g := met.Diff(before), rec.Gauges()
	return e6Result{
		refs:      d[metrics.DiskReferences],
		agentHit:  metrics.HitRate(g[ccache.MetricHits]-g0[ccache.MetricHits], g[ccache.MetricMisses]-g0[ccache.MetricMisses]),
		serverHit: metrics.HitRate(d[metrics.ServerCacheHit], d[metrics.ServerCacheMiss]),
		trackHit:  metrics.HitRate(d[metrics.TrackCacheHit], d[metrics.TrackCacheMiss]),
		sim:       fmtDuration(met.SimTime() - simBefore),
	}, nil
}

func e6Bullet(fileSize, rounds int) (int64, string, error) {
	met := metrics.NewSet()
	d, err := device.New(bigGeometry, device.WithMetrics(met))
	if err != nil {
		return 0, "", err
	}
	srv, err := bullet.New(d)
	if err != nil {
		return 0, "", err
	}
	data := make([]byte, fileSize)
	rand.New(rand.NewSource(1)).Read(data)
	id, err := srv.Create(data)
	if err != nil {
		return 0, "", err
	}
	before := met.Get(metrics.DiskReferences)
	simBefore := met.SimTime()
	// Bullet has whole-file semantics: a client needing any part re-fetches
	// the file; per round that is one full-file transfer.
	for round := 0; round < rounds; round++ {
		if _, err := srv.Read(id); err != nil {
			return 0, "", err
		}
	}
	return met.Get(metrics.DiskReferences) - before, fmtDuration(met.SimTime() - simBefore), nil
}
