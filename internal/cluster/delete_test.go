package cluster

import (
	"context"
	"errors"
	"net"
	"reflect"
	"sync"
	"testing"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/fit"
	"repro/internal/naming"
	"repro/internal/rpc"
	"repro/internal/rpcfs"
)

// TestRoutedDeleteIsTwoRequests: the server unregisters a file's names while
// serving fs.delete, so the agent over a remote service that owns naming
// sends no unregister message of its own — a delete by path is name.resolve
// then fs.delete.
func TestRoutedDeleteIsTwoRequests(t *testing.T) {
	c, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(overFS(c, ServiceConfig{
		Map: Map{Version: 1, Endpoints: []string{ln.Addr().String()}}, Locks: c.Locks(),
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var mu sync.Mutex
	var seen []string
	srv := rpc.Serve(ln, rpc.NewEndpoint(func(ctx context.Context, req rpc.Request) ([]byte, error) {
		mu.Lock()
		seen = append(seen, req.Method)
		mu.Unlock()
		return svc.HandleRequestCtx(ctx, req)
	}))
	defer srv.Close()

	rt, err := NewRouter(RouterConfig{Endpoints: []string{ln.Addr().String()}, ClientID: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	m, err := agent.NewMachine(agent.MachineConfig{Naming: rt, Files: rt})
	if err != nil {
		t.Fatal(err)
	}
	p, fa := m.NewProcess(), m.FileAgent()
	fd, err := fa.Create(p, "/d/f", fit.Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fa.Close(p, fd); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	seen = nil
	mu.Unlock()
	if err := fa.Delete("/d/f"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := append([]string(nil), seen...)
	mu.Unlock()
	if want := []string{rpcfs.MResolve, rpcfs.MDelete}; !reflect.DeepEqual(got, want) {
		t.Fatalf("routed delete sent %v, want %v", got, want)
	}
	if _, err := rt.ResolvePath("/d/f"); err == nil {
		t.Fatal("deleted path still resolves")
	}
	if _, err := c.Naming.ResolvePath("/d/f"); !errors.Is(err, naming.ErrNotFound) {
		t.Fatalf("server naming after delete: %v", err)
	}
}
