package cluster

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fit"
	"repro/internal/rpc"
	"repro/internal/rpcfs"
)

// replyTap counts the replication applies sent through it and the reply
// bytes they came back with.
type replyTap struct {
	rpc.Transport
	applies, replyBytes atomic.Int64
}

func (t *replyTap) Send(req rpc.Request) (rpc.Response, error) {
	resp, err := t.Transport.Send(req)
	if req.Method == MReplApply && err == nil {
		t.applies.Add(1)
		t.replyBytes.Add(int64(len(resp.Body)))
	}
	return resp, err
}

// TestReplApplyReplyIsEmpty: the backup confirms a shipped batch with an
// empty reply. The rpc answer is the confirmation; the primary reads no
// body, so the backup's duplicate cache keeps none.
func TestReplApplyReplyIsEmpty(t *testing.T) {
	m := Map{Version: 1, Endpoints: []string{"127.0.0.1:1"}, Backups: []string{"127.0.0.1:2"}}
	newCore := func() *core.Cluster {
		c, err := core.New(core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return c
	}
	backup, err := NewService(overFS(newCore(), ServiceConfig{Map: m, Role: RoleBackup}))
	if err != nil {
		t.Fatal(err)
	}
	defer backup.Close()
	ep := endpointOf(backup)
	backup.BindEndpoint(ep)
	tap := &replyTap{Transport: rpc.NewInProc(ep, rpc.FaultConfig{})}
	primary, err := NewService(overFS(newCore(), ServiceConfig{Map: m, Role: RolePrimary,
		Backup: rpc.NewClient(tap, ReplClientID(0), 3, nil)}))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	fs := &rpcfs.Client{C: rpc.NewClient(rpc.NewInProc(endpointOf(primary), rpc.FaultConfig{}), 1, 0, nil)}
	if _, err := fs.CreatePath(fit.Attributes{}, "/repl/f"); err != nil {
		t.Fatal(err)
	}
	if tap.applies.Load() == 0 {
		t.Fatal("the create shipped nothing")
	}
	if n := tap.replyBytes.Load(); n != 0 {
		t.Fatalf("the backup's apply replies carried %d bytes, want none", n)
	}
}
