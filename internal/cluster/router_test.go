package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/fit"
	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/polltest"
	"repro/internal/rpcfs"
)

// TestWithPathRedirects tables the redirect-following loop: a redirect
// refreshes the map and retries on the named shard, a bounded number of
// times; out-of-range homes and ordinary errors end the loop immediately.
func TestWithPathRedirects(t *testing.T) {
	r := newRig(t, 3, 0)
	rt := r.router(t, 400)
	path := "/withpath/f"
	home := ShardForPath(path, 3)

	plain := errors.New("ordinary failure")
	cases := []struct {
		name string
		// plan maps a shard to its response; shards absent from the plan
		// succeed. Responses run through the real error types the servers
		// produce.
		plan      func(shard int, call int) error
		wantErr   error // nil: fn must eventually succeed
		wantCalls int
	}{
		{
			name:      "no redirect",
			plan:      func(int, int) error { return nil },
			wantCalls: 1,
		},
		{
			name: "one hop to the named home",
			plan: func(shard, _ int) error {
				if shard == home {
					return NotMine((home+1)%3, 1)
				}
				return nil
			},
			wantCalls: 2,
		},
		{
			name:      "ping-pong loop exhausts the attempt budget",
			plan:      func(shard, _ int) error { return NotMine((shard+1)%3, 1) },
			wantErr:   errRedirect,
			wantCalls: redirectAttempts,
		},
		{
			name:      "out-of-range home ends the loop",
			plan:      func(int, int) error { return NotMine(7, 1) },
			wantErr:   errRedirect,
			wantCalls: 1,
		},
		{
			name:      "ordinary errors pass through untouched",
			plan:      func(int, int) error { return plain },
			wantErr:   plain,
			wantCalls: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			err := rt.withPath(path, func(c *rpcfs.Client, shard int) error {
				calls++
				return tc.plan(shard, calls)
			})
			if calls != tc.wantCalls {
				t.Fatalf("fn ran %d times, want %d", calls, tc.wantCalls)
			}
			switch {
			case tc.wantErr == nil:
				if err != nil {
					t.Fatalf("withPath = %v, want success", err)
				}
			case tc.wantErr == errRedirect:
				if _, ok := ParseNotMine(err); !ok {
					t.Fatalf("withPath = %v, want the last redirect error", err)
				}
			default:
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("withPath = %v, want %v", err, tc.wantErr)
				}
			}
		})
	}
}

// errRedirect is a sentinel for the table above: "expect the final redirect
// error", whose concrete value the loop constructs.
var errRedirect = errors.New("want redirect error")

// TestRefreshMapRules pins the map-installation rules: only a strictly
// newer version with the same endpoint count replaces the current map (the
// shard count is fixed for the router's lifetime — connections are
// per-shard).
func TestRefreshMapRules(t *testing.T) {
	r := newRig(t, 3, 0)
	rt := r.router(t, 401)

	// The servers serve version 1: an older local map is superseded.
	rt.mu.Lock()
	rt.cur.Version = 0
	rt.mu.Unlock()
	rt.refreshMap(0)
	if v := rt.Map().Version; v != 1 {
		t.Fatalf("older map not refreshed: version %d, want 1", v)
	}

	// A local map already newer than the server's is kept.
	rt.mu.Lock()
	rt.cur.Version = 5
	rt.mu.Unlock()
	rt.refreshMap(0)
	if v := rt.Map().Version; v != 5 {
		t.Fatalf("newer local map clobbered by an older server map: version %d", v)
	}

	// A server map with a different endpoint count is ignored even when its
	// version is newer.
	saved := rt.Map()
	rt.mu.Lock()
	rt.cur = Map{Version: 0, Endpoints: saved.Endpoints[:2]}
	rt.mu.Unlock()
	rt.refreshMap(0)
	if got := rt.Map(); len(got.Endpoints) != 2 || got.Version != 0 {
		t.Fatalf("map with mismatched endpoint count installed: %+v", got)
	}
	rt.mu.Lock()
	rt.cur = saved
	rt.mu.Unlock()
}

// TestLockClientAcquireCanceledContext: an already-canceled context must
// return immediately without issuing a network call — the bug was a first
// try that always went out, burning a round trip per canceled acquire.
func TestLockClientAcquireCanceledContext(t *testing.T) {
	r := newRig(t, 1, time.Second)
	rt := r.router(t, 402)
	lc := NewLockClient(rt.Lock(0), 402, time.Second, nil, nil)
	defer lc.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	err := lc.Acquire(ctx, 1, 1, lock.Record, lock.ItemID{File: 1, Offset: 0, Length: 10}, lock.IWrite)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Acquire with canceled context = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("canceled acquire took %v; it must not wait on the network or backoff", d)
	}
}

// TestLockClientBufferBalance: the acquire/release/renew paths recycle every
// pooled request and reply buffer, including the denied-try polling loop —
// the leak was one request buffer per denied try.
func TestLockClientBufferBalance(t *testing.T) {
	const ttl = 200 * time.Millisecond
	r := newRig(t, 1, ttl)
	rt := r.router(t, 403)
	lc := NewLockClient(rt.Lock(0), 403, ttl, r.clk, nil)

	item := lock.ItemID{File: 42, Offset: 0, Length: 10}
	if err := lc.Acquire(context.Background(), 1, 1, lock.Record, item, lock.IWrite); err != nil {
		t.Fatal(err)
	}
	base := polltest.SettledBuffers(t)

	// A contending transaction polls denied tries until the holder releases.
	done := make(chan error, 1)
	go func() {
		done <- lc.Acquire(context.Background(), 2, 2, lock.Record, item, lock.IWrite)
	}()
	// Several denied tries: each parks on its backoff beside the sweep and
	// the renewal loop.
	for i := 0; i < 4; i++ {
		r.clk.WaitTimers(3)
		r.clk.Advance(acquireBackoffMax)
	}
	r.clk.WaitTimers(3) // parked after its fourth denied try
	if err := lc.Release(1); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(2 * acquireBackoffMax)
	if err := <-done; err != nil {
		t.Fatalf("contended acquire: %v", err)
	}
	if err := lc.Release(2); err != nil {
		t.Fatal(err)
	}
	// Stop the background renewer before the final audit so the ledger can
	// go quiescent.
	lc.Close()
	polltest.BuffersBalance(t, base, "after contended acquire/release")
}

// TestRouterEntryPointsObserveOnce pins that a routed read or write is in
// the cluster-layer histogram exactly once whichever entry point the caller
// reached: the context-free forms are delegates, not a second path that
// skips the bracket.
func TestRouterEntryPointsObserveOnce(t *testing.T) {
	r := newRig(t, 1, 0)
	rec := obs.New()
	rt, err := NewRouter(RouterConfig{Endpoints: r.m.Endpoints, ClientID: 77, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	id, err := rt.CreatePath(fit.Attributes{}, "/obs/f")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"WriteAt", func() error { _, err := rt.WriteAt(id, 0, []byte("abc")); return err }},
		{"WriteAtCtx", func() error { _, err := rt.WriteAtCtx(ctx, id, 0, []byte("abc")); return err }},
		{"ReadAt", func() error { _, err := rt.ReadAt(id, 0, 3); return err }},
		{"ReadAtCtx", func() error { _, err := rt.ReadAtCtx(ctx, id, 0, 3); return err }},
	} {
		before := rec.LayerCount(obs.LayerCluster)
		if err := c.call(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := rec.LayerCount(obs.LayerCluster) - before; got != 1 {
			t.Errorf("%s recorded %d cluster-layer observations, want 1", c.name, got)
		}
	}
}
