package cluster

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lock"
	"repro/internal/rpc"
	"repro/internal/simclock"
)

// inProcClient is an rpc client over an in-process endpoint running h.
func inProcClient(id uint64, h rpc.Handler) *rpc.Client {
	return rpc.NewClient(rpc.NewInProc(rpc.NewEndpoint(h), rpc.FaultConfig{}), id, 0, nil)
}

// TestServiceLoopsStopOnClose pins that Close ends every loop a Service
// runs, in each role: once it returns, the lease sweep breaks no expired
// lease, a primary sends no heartbeat, and a backup's watchdog promotes no
// silent pairing — though each would have acted within the advance below.
func TestServiceLoopsStopOnClose(t *testing.T) {
	const (
		leaseTTL = 100 * time.Millisecond // swept every 25 ms
		replTTL  = 30 * time.Millisecond  // heartbeat every 10 ms, watchdog every 7.5 ms
	)
	for _, role := range []Role{RoleNone, RolePrimary, RoleBackup} {
		t.Run(role.String(), func(t *testing.T) {
			clk := simclock.New()
			c, err := core.New(core.Config{LT: 30 * time.Second, Clock: clk})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = c.Close() }()
			var beats atomic.Int64
			cfg := overFS(c, ServiceConfig{
				Map:      Map{Version: 1, Endpoints: []string{"127.0.0.1:1"}, Backups: []string{"127.0.0.1:2"}},
				Locks:    c.Locks(),
				LeaseTTL: leaseTTL,
				Role:     role,
				ReplTTL:  replTTL,
			})
			if role == RolePrimary {
				cfg.Backup = inProcClient(ReplClientID(0), func(_ context.Context, req rpc.Request) ([]byte, error) {
					if req.Method == MReplHeartbeat {
						beats.Add(1)
					}
					return nil, nil
				})
			}
			svc, err := NewService(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if role == RolePrimary {
				clk.Advance(replTTL / 3)
				if beats.Load() != 1 {
					t.Fatalf("%d heartbeats one period in, want 1", beats.Load())
				}
			}
			// A transaction leased to a client that then falls silent, and
			// (on a backup) a primary heard once and never again.
			const txn = 7
			body := appendLockAcquire(nil, LockAcquireArgs{Client: 1, Txn: txn, PID: 1,
				Level: uint8(lock.File), Mode: uint8(lock.IWrite), File: 1})
			if _, err := svc.handleAcquire(body); err != nil {
				t.Fatal(err)
			}
			svc.touch()
			svc.Close()
			sent := beats.Load()

			clk.Advance(3 * leaseTTL)
			if c.Locks().Broken(txn) || svc.leases.Len() != 1 {
				t.Error("lease sweep ran after Close")
			}
			if got := beats.Load(); got != sent {
				t.Errorf("%d heartbeat(s) sent after Close", got-sent)
			}
			if got := svc.Role(); got != role {
				t.Errorf("role %v after Close, want %v: the watchdog ran", got, role)
			}
		})
	}
}

// TestLockClientRenewStopsOnClose pins that Close ends the renewal loop:
// the partition fault it consults on every tick fires no more.
func TestLockClientRenewStopsOnClose(t *testing.T) {
	const ttl = 30 * time.Millisecond // renewals every 10 ms
	inj := fault.NewInjector(1)
	inj.Arm(PtLeaseRenew, fault.Action{Kind: fault.KindError, Times: -1})
	clk := simclock.New()
	lc := NewLockClient(inProcClient(1, func(context.Context, rpc.Request) ([]byte, error) { return nil, nil }), 1, ttl, clk, inj)
	clk.Advance(ttl)
	if got := inj.Fired(PtLeaseRenew); got != 3 {
		t.Fatalf("%d renewal ticks in one lease, want 3", got)
	}
	lc.Close()
	clk.Advance(10 * ttl)
	if got := inj.Fired(PtLeaseRenew); got != 3 {
		t.Fatalf("%d renewal tick(s) after Close", got-3)
	}
	lc.Close() // idempotent
}

// TestNetworkLockRefusesUnknownModes sends the two mode bytes just outside
// Table 1's range through the lock wire: both are malformed items, and
// neither leaves a hold that a later request would be judged against.
func TestNetworkLockRefusesUnknownModes(t *testing.T) {
	r := newRig(t, 1, time.Second)
	rt := r.router(t, 600)
	lc := NewLockClient(rt.Lock(0), 601, time.Second, nil, nil)
	defer lc.Close()
	item := lock.ItemID{File: 3, Offset: 0, Length: 8}
	for i, mode := range []lock.Mode{0, lock.IWrite + 1} {
		err := lc.Acquire(context.Background(), lock.TxnID(20+i), 1, lock.Record, item, mode)
		if err == nil || !strings.Contains(err.Error(), lock.ErrBadItem.Error()) {
			t.Fatalf("mode %d: Acquire = %v, want %v", mode, err, lock.ErrBadItem)
		}
	}
	if n := r.cores[0].Locks().HoldCount(); n != 0 {
		t.Fatalf("HoldCount = %d after refused acquires, want 0", n)
	}
}
