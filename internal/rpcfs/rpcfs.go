// Package rpcfs puts the basic file service and the naming service behind
// the message layer (package rpc), so client machines can reach a remote
// RHODOS server: cmd/rhodosd serves this protocol over TCP and cmd/rhodos
// (plus agent.FileService proxies) consume it.
//
// Arguments and replies are marshaled with the fixed-layout binary codec
// (codec.go). Every operation inherits the idempotent request semantics of
// the rpc endpoint (§3).
//
// Concurrency and ownership contract: the package holds no mutable state of
// its own — handlers are stateless translations, so a server is safe for
// any number of concurrent in-flight requests; synchronization lives in the
// file service and naming layers below, and exactly-once effects live in
// the rpc layer's duplicate-request cache. Per-descriptor state (offsets)
// stays on the client side: the proxy owns its descriptor table and is
// single-client, shared across goroutines only as safely as the agent
// sharing its process.
package rpcfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"repro/internal/agent"
	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/naming"
	"repro/internal/rpc"
)

// Method names. What each one addresses, writes and changes, and how it is
// served, is declared once, in the method table (methods.go).
const (
	MCreate   = "fs.create"
	MOpen     = "fs.open"
	MClose    = "fs.close"
	MDelete   = "fs.delete"
	MReadAt   = "fs.readAt"
	MWriteAt  = "fs.writeAt"
	MTruncate = "fs.truncate"
	MAttr     = "fs.attributes"
	MSize     = "fs.size"

	MResolve       = "name.resolve"
	MRegister      = "name.register"
	MUnregisterSys = "name.unregisterSys"
	MList          = "name.list"
	MResolveQuery  = "name.resolveQuery"
)

// Request/reply payloads.
type (
	// CreateArgs creates a file; the path, when nonempty, is registered in
	// the naming service.
	CreateArgs struct {
		Attr fit.Attributes
		Path string
	}
	// IDArgs addresses a file by system name.
	IDArgs struct{ ID uint64 }
	// ReadAtArgs reads N bytes at Off.
	ReadAtArgs struct {
		ID  uint64
		Off int64
		N   int
	}
	// WriteAtArgs writes Data at Off.
	WriteAtArgs struct {
		ID   uint64
		Off  int64
		Data []byte
	}
	// TruncateArgs sets the file size.
	TruncateArgs struct {
		ID   uint64
		Size int64
	}
	// PathArgs addresses by attributed path name.
	PathArgs struct{ Path string }
	// RegisterArgs registers a naming entry.
	RegisterArgs struct{ Entry naming.Entry }
	// QueryArgs evaluates a general attributed-name query (exactly-one
	// match semantics, like naming.Service.Resolve).
	QueryArgs struct{ Query naming.Name }
	// UnregisterSysArgs removes every naming entry with the given object
	// type and system name.
	UnregisterSysArgs struct {
		Type uint8
		Sys  uint64
	}
	// ResolveReply returns a naming entry.
	ResolveReply struct{ Entry naming.Entry }
	// ListReply returns directory children.
	ListReply struct{ Names []string }
	// IntReply returns a count or identifier.
	IntReply struct{ V int64 }
	// AttrReply returns attributes.
	AttrReply struct{ Attr fit.Attributes }
	// BytesReply returns data.
	BytesReply struct{ Data []byte }
	// Empty is the empty reply.
	Empty struct{}
)

// Server adapts the file and naming services to a request handler.
type Server struct {
	Files  *fileservice.Service
	Naming *naming.Service
	// Wire is inert: bench/rig.go sets it, ROADMAP item 8 deletes it.
	Wire rpc.WireFormat
}

// enc encodes a reply payload. Reply bodies are retained by the endpoint's
// duplicate-request cache, so they are plain allocations, never drawn from
// the transport's recycled buffer pools.
func enc(v any) ([]byte, error) {
	return appendPayload(make([]byte, 0, payloadSize(v)), v)
}

// HandlerCtx returns the request handler: it looks the method up in the
// method table and serves it. The request context, which carries the serving
// span when the request arrived traced, is threaded through to the
// instrumented file-service data path, so a traced request's
// fileservice/txn/wal spans nest inside the caller's tree.
func (s *Server) HandlerCtx() rpc.Link {
	return func(ctx context.Context, method string, body []byte) ([]byte, error) {
		m := methods[method]
		if m == nil {
			return nil, fmt.Errorf("rpcfs: unknown method %q", method)
		}
		return m.serve(ctx, s, body)
	}
}

// create serves fs.create: create the file, register a.Path when it is
// nonempty, then open the file once when a.Attr.RefCount is 1 (the agent's
// create hands back an open file, so it needs no fs.open of its own). A step
// that fails unwinds the ones before it: the caller is told the file does
// not exist, so no name, file or open reference may be left behind.
func (s *Server) create(a CreateArgs) (fileservice.FileID, error) {
	if a.Attr.RefCount > 1 {
		return 0, fmt.Errorf("rpcfs: create asks for %d opens, want 0 or 1", a.Attr.RefCount)
	}
	id, err := s.Files.Create(a.Attr)
	if err != nil {
		return 0, err
	}
	if a.Path != "" {
		if err := s.Naming.Register(naming.Entry{
			Name:       naming.Name{"type": "FILE", "path": a.Path},
			Type:       naming.FileObject,
			SystemName: uint64(id),
			Service:    "rhodosd",
		}); err != nil {
			_ = s.Files.Delete(id)
			return 0, err
		}
	}
	if a.Attr.RefCount == 1 {
		if err := s.Files.Open(id); err != nil {
			s.Naming.UnregisterSystemName(naming.FileObject, uint64(id))
			_ = s.Files.Delete(id)
			return 0, err
		}
	}
	return id, nil
}

// Client is an agent.FileService implementation backed by a remote server,
// plus the naming calls the CLI and the cluster router need.
type Client struct {
	C *rpc.Client
}

var _ agent.FileService = (*Client)(nil)

// call is one round trip, carrying ctx's span identity across the wire (see
// rpc.Client.Call).
func (c *Client) call(ctx context.Context, method string, args, reply any) error {
	// Both frames are this function's (codec.go has the rule). The argument
	// body comes from the transport's buffer pools and goes back once Call
	// returns, on every path: the transport never retains a request body past
	// Call (the connection writer claims it only while the call is still
	// pending). The reply frame goes back once it is decoded, its bytes copied
	// out first.
	body, err := appendPayload(rpc.Buffer(payloadSize(args))[:0], args)
	if err != nil {
		rpc.Recycle(body)
		return err
	}
	out, err := c.C.Call(ctx, method, body)
	rpc.Recycle(body)
	if err == nil && reply != nil {
		err = unmarshalPayload(out, reply)
		if br, ok := reply.(*BytesReply); ok {
			br.Data = bytes.Clone(br.Data)
		}
	}
	c.C.ReleaseBody(out)
	return err
}

// CreatePath creates a file registered under path.
func (c *Client) CreatePath(attr fit.Attributes, path string) (fileservice.FileID, error) {
	var r IntReply
	if err := c.call(context.Background(), MCreate, CreateArgs{Attr: attr, Path: path}, &r); err != nil {
		return 0, err
	}
	return fileservice.FileID(r.V), nil
}

// Create implements agent.FileService.
func (c *Client) Create(attr fit.Attributes) (fileservice.FileID, error) {
	return c.CreatePath(attr, "")
}

// Open implements agent.FileService.
func (c *Client) Open(id fileservice.FileID) error {
	return c.call(context.Background(), MOpen, IDArgs{ID: uint64(id)}, nil)
}

// Close implements agent.FileService.
func (c *Client) Close(id fileservice.FileID) error {
	return c.call(context.Background(), MClose, IDArgs{ID: uint64(id)}, nil)
}

// Delete implements agent.FileService.
func (c *Client) Delete(id fileservice.FileID) error {
	return c.call(context.Background(), MDelete, IDArgs{ID: uint64(id)}, nil)
}

// ReadAtCtx implements agent.FileService, carrying ctx's span across the
// wire.
func (c *Client) ReadAtCtx(ctx context.Context, id fileservice.FileID, off int64, n int) ([]byte, error) {
	var r BytesReply
	if err := c.call(ctx, MReadAt, ReadAtArgs{ID: uint64(id), Off: off, N: n}, &r); err != nil {
		return nil, err
	}
	return r.Data, nil
}

// WriteAtCtx implements agent.FileService, carrying ctx's span across the
// wire.
func (c *Client) WriteAtCtx(ctx context.Context, id fileservice.FileID, off int64, data []byte) (int, error) {
	var r IntReply
	if err := c.call(ctx, MWriteAt, WriteAtArgs{ID: uint64(id), Off: off, Data: data}, &r); err != nil {
		return 0, err
	}
	return int(r.V), nil
}

// Truncate implements agent.FileService.
func (c *Client) Truncate(id fileservice.FileID, size int64) error {
	return c.call(context.Background(), MTruncate, TruncateArgs{ID: uint64(id), Size: size}, nil)
}

// Attributes implements agent.FileService.
func (c *Client) Attributes(id fileservice.FileID) (fit.Attributes, error) {
	var r AttrReply
	if err := c.call(context.Background(), MAttr, IDArgs{ID: uint64(id)}, &r); err != nil {
		return fit.Attributes{}, err
	}
	return r.Attr, nil
}

// Size implements agent.FileService.
func (c *Client) Size(id fileservice.FileID) (int64, error) {
	var r IntReply
	if err := c.call(context.Background(), MSize, IDArgs{ID: uint64(id)}, &r); err != nil {
		return 0, err
	}
	return r.V, nil
}

// Resolve resolves an attributed path name remotely.
func (c *Client) Resolve(path string) (naming.Entry, error) {
	var r ResolveReply
	if err := c.call(context.Background(), MResolve, PathArgs{Path: path}, &r); err != nil {
		return naming.Entry{}, err
	}
	return r.Entry, nil
}

// ResolveQuery evaluates a general attributed-name query remotely.
func (c *Client) ResolveQuery(query naming.Name) (naming.Entry, error) {
	var r ResolveReply
	if err := c.call(context.Background(), MResolveQuery, QueryArgs{Query: query}, &r); err != nil {
		return naming.Entry{}, err
	}
	return r.Entry, nil
}

// Register registers a naming entry remotely.
func (c *Client) Register(e naming.Entry) error {
	return c.call(context.Background(), MRegister, RegisterArgs{Entry: e}, nil)
}

// UnregisterSys removes every naming entry with the given object type and
// system name remotely, returning how many were removed.
func (c *Client) UnregisterSys(t naming.ObjectType, sys uint64) (int, error) {
	var r IntReply
	if err := c.call(context.Background(), MUnregisterSys, UnregisterSysArgs{Type: uint8(t), Sys: sys}, &r); err != nil {
		return 0, err
	}
	return int(r.V), nil
}

// List lists directory children remotely.
func (c *Client) List(dir string) ([]string, error) {
	var r ListReply
	if err := c.call(context.Background(), MList, PathArgs{Path: dir}, &r); err != nil {
		return nil, err
	}
	return r.Names, nil
}

// IsNotFound reports whether a remote error is a not-found condition (the
// error crossed the wire as a string).
func IsNotFound(err error) bool {
	var se *rpc.ServiceError
	return errors.As(err, &se) && containsAny(se.Message, "no such file", "no entry matches")
}

func containsAny(s string, subs ...string) bool {
	for _, sub := range subs {
		if bytes.Contains([]byte(s), []byte(sub)) {
			return true
		}
	}
	return false
}
