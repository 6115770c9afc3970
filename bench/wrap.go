package main

import (
	"context"
	"encoding/binary"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/cluster"
	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/naming"
	"repro/internal/rpc"
	"repro/internal/rpcfs"
)

// The benchmark times the program from outside: these wrappers sit on the
// boundaries the program already lets a caller inject, forward every call
// unchanged, and record a span only while the tracer is on.

// ctxFiles is the file-service surface both *ccache.Client and
// *cluster.Router offer. agent.Machine and ccache.Client type-assert their
// file service for the Ctx methods and prefer them, so a wrapper that embeds
// the inner value and overrides only ReadAt/WriteAt is silently bypassed;
// filesTap therefore embeds nothing and forwards every method by hand.
type ctxFiles interface {
	agent.FileService
	ReadAtCtx(ctx context.Context, id fileservice.FileID, off int64, n int) ([]byte, error)
	WriteAtCtx(ctx context.Context, id fileservice.FileID, off int64, data []byte) (int, error)
}

type filesTap struct {
	inner  ctxFiles
	tr     *tracer
	layer  uint8
	client uint8
	calls  atomic.Int64 // calls forwarded, traced or not
}

func (f *filesTap) begin() int64 {
	f.calls.Add(1)
	if f.tr.on.Load() {
		return f.tr.now()
	}
	return -1
}

func (f *filesTap) end(kind uint8, t0 int64) {
	if t0 >= 0 {
		f.tr.add(f.layer, kind, f.client, t0, f.tr.now())
	}
}

func (f *filesTap) Create(attr fit.Attributes) (fileservice.FileID, error) {
	t0 := f.begin()
	id, err := f.inner.Create(attr)
	f.end(kindCreate, t0)
	return id, err
}

func (f *filesTap) Open(id fileservice.FileID) error {
	t0 := f.begin()
	err := f.inner.Open(id)
	f.end(kindOpen, t0)
	return err
}

func (f *filesTap) Close(id fileservice.FileID) error {
	t0 := f.begin()
	err := f.inner.Close(id)
	f.end(kindClose, t0)
	return err
}

func (f *filesTap) Delete(id fileservice.FileID) error {
	t0 := f.begin()
	err := f.inner.Delete(id)
	f.end(kindDelete, t0)
	return err
}

func (f *filesTap) ReadAt(id fileservice.FileID, off int64, n int) ([]byte, error) {
	t0 := f.begin()
	out, err := f.inner.ReadAt(id, off, n)
	f.end(kindRead, t0)
	return out, err
}

func (f *filesTap) ReadAtCtx(ctx context.Context, id fileservice.FileID, off int64, n int) ([]byte, error) {
	t0 := f.begin()
	out, err := f.inner.ReadAtCtx(ctx, id, off, n)
	f.end(kindRead, t0)
	return out, err
}

func (f *filesTap) WriteAt(id fileservice.FileID, off int64, data []byte) (int, error) {
	t0 := f.begin()
	n, err := f.inner.WriteAt(id, off, data)
	f.end(kindWrite, t0)
	return n, err
}

func (f *filesTap) WriteAtCtx(ctx context.Context, id fileservice.FileID, off int64, data []byte) (int, error) {
	t0 := f.begin()
	n, err := f.inner.WriteAtCtx(ctx, id, off, data)
	f.end(kindWrite, t0)
	return n, err
}

func (f *filesTap) Truncate(id fileservice.FileID, size int64) error {
	t0 := f.begin()
	err := f.inner.Truncate(id, size)
	f.end(kindOther, t0)
	return err
}

func (f *filesTap) Attributes(id fileservice.FileID) (fit.Attributes, error) {
	t0 := f.begin()
	a, err := f.inner.Attributes(id)
	f.end(kindOther, t0)
	return a, err
}

func (f *filesTap) Size(id fileservice.FileID) (int64, error) {
	t0 := f.begin()
	n, err := f.inner.Size(id)
	f.end(kindOther, t0)
	return n, err
}

// routerTap is the tap over a *cluster.Router: the file service plus the
// router's path-create and naming calls, which the agent also reaches it by.
type routerTap struct {
	*filesTap
	rt *cluster.Router
}

var (
	_ ctxFiles          = (*filesTap)(nil)
	_ agent.PathCreator = (*routerTap)(nil)
	_ agent.NameService = (*routerTap)(nil)
)

func newRouterTap(rt *cluster.Router, tr *tracer, client uint8) *routerTap {
	return &routerTap{filesTap: &filesTap{inner: rt, tr: tr, layer: layerRouterRPC, client: client}, rt: rt}
}

func (r *routerTap) CreatePath(attr fit.Attributes, path string) (fileservice.FileID, error) {
	t0 := r.begin()
	id, err := r.rt.CreatePath(attr, path)
	r.end(kindCreate, t0)
	return id, err
}

func (r *routerTap) Register(e naming.Entry) error {
	t0 := r.begin()
	err := r.rt.Register(e)
	r.end(kindCreate, t0)
	return err
}

func (r *routerTap) Resolve(q naming.Name) (naming.Entry, error) {
	t0 := r.begin()
	e, err := r.rt.Resolve(q)
	r.end(kindResolve, t0)
	return e, err
}

func (r *routerTap) ResolvePath(path string) (naming.Entry, error) {
	t0 := r.begin()
	e, err := r.rt.ResolvePath(path)
	r.end(kindResolve, t0)
	return e, err
}

func (r *routerTap) UnregisterSystemName(t naming.ObjectType, sys uint64) int {
	t0 := r.begin()
	n := r.rt.UnregisterSystemName(t, sys)
	r.end(kindUnregister, t0)
	return n
}

// kindOfMethod maps a wire method to a span kind on the server side.
func kindOfMethod(method string) uint8 {
	switch method {
	case rpcfs.MReadAt:
		return kindRead
	case rpcfs.MWriteAt:
		return kindWrite
	case rpcfs.MCreate, rpcfs.MRegister:
		return kindCreate
	case rpcfs.MOpen:
		return kindOpen
	case rpcfs.MClose:
		return kindClose
	case rpcfs.MDelete:
		return kindDelete
	case rpcfs.MResolve, rpcfs.MResolveQuery:
		return kindResolve
	case rpcfs.MUnregisterSys:
		return kindUnregister
	}
	return kindOther
}

// maxBenchClients bounds the rpc client IDs the server-side taps attribute
// spans to; the replication stream and set-up clients use IDs above it.
const maxBenchClients = 8

// tapInfo rides the request context from the handler tap to the inner taps,
// so every server span carries the client it was served for.
type tapInfo struct{ client, kind uint8 }

type tapKey struct{}

// tapInner wraps a (ctx, method, body) handler — cluster.ServiceConfig.InnerCtx
// or ccache.ServerConfig.Inner — with a span of the given layer.
func tapInner(tr *tracer, layer uint8, inner func(ctx context.Context, method string, body []byte) ([]byte, error)) func(ctx context.Context, method string, body []byte) ([]byte, error) {
	return func(ctx context.Context, method string, body []byte) ([]byte, error) {
		if !tr.on.Load() {
			return inner(ctx, method, body)
		}
		info, ok := ctx.Value(tapKey{}).(tapInfo)
		if !ok {
			return inner(ctx, method, body)
		}
		t0 := tr.now()
		out, err := inner(ctx, method, body)
		tr.add(layer, info.kind, info.client, t0, tr.now())
		return out, err
	}
}

// shipTap is the rpc.Transport under a primary's backup client. Embedding the
// TCP transport keeps its deadline, rebind and body-ownership behaviour; only
// Send is observed: ships and the records they carry are always counted, the
// round trip is timed while tracing.
type shipTap struct {
	*rpc.TCPTransport
	tr     *tracer
	ships  atomic.Int64
	recs   atomic.Int64
	shipNS atomic.Int64
	timed  atomic.Int64 // ships included in shipNS
}

func (s *shipTap) observe(req rpc.Request) (t0 int64) {
	if req.Method != cluster.MReplApply || len(req.Body) < 4 {
		return -1
	}
	s.ships.Add(1)
	s.recs.Add(int64(binary.BigEndian.Uint32(req.Body)))
	if s.tr.on.Load() {
		return s.tr.now()
	}
	return -1
}

func (s *shipTap) done(t0 int64) {
	if t0 >= 0 {
		s.shipNS.Add(s.tr.now() - t0)
		s.timed.Add(1)
	}
}

func (s *shipTap) Send(req rpc.Request) (rpc.Response, error) {
	t0 := s.observe(req)
	resp, err := s.TCPTransport.Send(req)
	s.done(t0)
	return resp, err
}

func (s *shipTap) SendWithDeadline(req rpc.Request, deadline time.Time) (rpc.Response, error) {
	t0 := s.observe(req)
	resp, err := s.TCPTransport.SendWithDeadline(req, deadline)
	s.done(t0)
	return resp, err
}
