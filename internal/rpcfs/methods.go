package rpcfs

// The method table: every rpcfs method is declared once, here. An entry says
// what the method's arguments address (a namespace path, a file by ID, or
// nothing), whether it writes that file, whether it changes server state,
// and how the server carries it out. The handler dispatches through it, and
// Classify answers the layers above from it: the cluster service's ownership
// check and replicate decision, and the lease manager's conflict check.
// Serving a new frame is one entry here; the Client method that sends it,
// and on a cluster the router's, are the rest.

import (
	"context"
	"encoding/binary"

	"repro/internal/fileservice"
	"repro/internal/naming"
)

// method is one table entry. path and file, at most one of them set, decode
// a request body and return what its arguments address; a method with
// neither addresses nothing. Both decode the whole argument struct, so a
// body that does not decode is refused before the caller acts on it.
type method struct {
	mutates bool // changes server state: a replicated primary ships it
	writes  bool // writes the file its arguments address
	// path's ok is false for arguments that name no path (an anonymous
	// create, a registration with no path attribute).
	path  func(body []byte) (p string, ok bool, err error)
	file  func(body []byte) (id uint64, err error)
	serve func(ctx context.Context, s *Server, body []byte) ([]byte, error)
}

var methods = map[string]*method{
	MCreate: {mutates: true,
		path: pathOf(func(a CreateArgs) (string, bool) { return a.Path, a.Path != "" }),
		serve: serve(func(_ context.Context, s *Server, a CreateArgs) ([]byte, error) {
			id, err := s.create(a)
			return reply(IntReply{V: int64(id)}, err)
		})},
	MOpen: {mutates: true, file: fileOf(func(a IDArgs) uint64 { return a.ID }),
		serve: serve(func(_ context.Context, s *Server, a IDArgs) ([]byte, error) {
			return reply(Empty{}, s.Files.Open(fileservice.FileID(a.ID)))
		})},
	MClose: {mutates: true, file: fileOf(func(a IDArgs) uint64 { return a.ID }),
		serve: serve(func(_ context.Context, s *Server, a IDArgs) ([]byte, error) {
			return reply(Empty{}, s.Files.Close(fileservice.FileID(a.ID)))
		})},
	MDelete: {mutates: true, writes: true, file: fileOf(func(a IDArgs) uint64 { return a.ID }),
		serve: serve(func(_ context.Context, s *Server, a IDArgs) ([]byte, error) {
			if err := s.Files.Delete(fileservice.FileID(a.ID)); err != nil {
				return nil, err
			}
			s.Naming.UnregisterSystemName(naming.FileObject, a.ID)
			return enc(Empty{})
		})},
	MReadAt: {file: fileOf(func(a ReadAtArgs) uint64 { return a.ID }),
		serve: serve(func(ctx context.Context, s *Server, a ReadAtArgs) ([]byte, error) {
			// The reply is a BytesReply the file service reads straight into:
			// the blob's length header, then the bytes where they were read.
			out, err := s.Files.ReadAtHeadroomCtx(ctx, fileservice.FileID(a.ID), a.Off, a.N, blobHeaderLen)
			if err != nil {
				return nil, err
			}
			binary.BigEndian.PutUint32(out, uint32(len(out)-blobHeaderLen))
			return out, nil
		})},
	MWriteAt: {mutates: true, writes: true, file: fileOf(func(a WriteAtArgs) uint64 { return a.ID }),
		serve: serve(func(ctx context.Context, s *Server, a WriteAtArgs) ([]byte, error) {
			n, err := s.Files.WriteAtCtx(ctx, fileservice.FileID(a.ID), a.Off, a.Data)
			return reply(IntReply{V: int64(n)}, err)
		})},
	MTruncate: {mutates: true, writes: true, file: fileOf(func(a TruncateArgs) uint64 { return a.ID }),
		serve: serve(func(_ context.Context, s *Server, a TruncateArgs) ([]byte, error) {
			return reply(Empty{}, s.Files.Truncate(fileservice.FileID(a.ID), a.Size))
		})},
	MAttr: {file: fileOf(func(a IDArgs) uint64 { return a.ID }),
		serve: serve(func(_ context.Context, s *Server, a IDArgs) ([]byte, error) {
			attr, err := s.Files.Attributes(fileservice.FileID(a.ID))
			return reply(AttrReply{Attr: attr}, err)
		})},
	MSize: {file: fileOf(func(a IDArgs) uint64 { return a.ID }),
		serve: serve(func(_ context.Context, s *Server, a IDArgs) ([]byte, error) {
			size, err := s.Files.Size(fileservice.FileID(a.ID))
			return reply(IntReply{V: size}, err)
		})},

	MResolve: {path: pathOf(func(a PathArgs) (string, bool) { return a.Path, true }),
		serve: serve(func(_ context.Context, s *Server, a PathArgs) ([]byte, error) {
			e, err := s.Naming.ResolvePath(a.Path)
			return reply(ResolveReply{Entry: e}, err)
		})},
	MRegister: {mutates: true,
		path: pathOf(func(a RegisterArgs) (string, bool) {
			p, ok := a.Entry.Name["path"]
			return p, ok
		}),
		serve: serve(func(_ context.Context, s *Server, a RegisterArgs) ([]byte, error) {
			return reply(Empty{}, s.Naming.Register(a.Entry))
		})},
	MUnregisterSys: {mutates: true,
		serve: serve(func(_ context.Context, s *Server, a UnregisterSysArgs) ([]byte, error) {
			return enc(IntReply{V: int64(s.Naming.UnregisterSystemName(naming.ObjectType(a.Type), a.Sys))})
		})},
	MResolveQuery: {
		serve: serve(func(_ context.Context, s *Server, a QueryArgs) ([]byte, error) {
			e, err := s.Naming.Resolve(a.Query)
			return reply(ResolveReply{Entry: e}, err)
		})},
	// name.list is answered from this server's namespace alone: a cluster
	// router fans it out and merges.
	MList: {
		serve: serve(func(_ context.Context, s *Server, a PathArgs) ([]byte, error) {
			return enc(ListReply{Names: s.Naming.List(a.Path)})
		})},
}

// serve adapts a server function on decoded arguments to a request body.
// The arguments travel by value, so they stay on the stack.
func serve[A any](f func(context.Context, *Server, A) ([]byte, error)) func(context.Context, *Server, []byte) ([]byte, error) {
	return func(ctx context.Context, s *Server, body []byte) ([]byte, error) {
		var a A
		if err := unmarshalPayload(body, &a); err != nil {
			return nil, err
		}
		return f(ctx, s, a)
	}
}

// pathOf adapts a path accessor on decoded arguments to a request body.
func pathOf[A any](f func(A) (string, bool)) func([]byte) (string, bool, error) {
	return func(body []byte) (string, bool, error) {
		var a A
		if err := unmarshalPayload(body, &a); err != nil {
			return "", false, err
		}
		p, ok := f(a)
		return p, ok, nil
	}
}

// fileOf adapts a file-ID accessor on decoded arguments to a request body.
func fileOf[A any](f func(A) uint64) func([]byte) (uint64, error) {
	return func(body []byte) (uint64, error) {
		var a A
		if err := unmarshalPayload(body, &a); err != nil {
			return 0, err
		}
		return f(a), nil
	}
}

// reply encodes v, or passes a server function's error on.
func reply(v any, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return enc(v)
}

// Class is what the method table declares about one request. Mutates and
// Writes come from the table alone; Path and File decode the request's
// arguments, and only for a method addressed that way, so each layer decodes
// just the requests it acts on. The Class of an unknown method addresses
// nothing and changes nothing.
type Class struct {
	Mutates bool // the method changes server state: a replicated primary ships it
	Writes  bool // the method writes the file its arguments address
	m       *method
	body    []byte
}

// Classify looks a request up in the method table. body is kept, not
// decoded, until Path or File asks for it.
func Classify(method string, body []byte) Class {
	m := methods[method]
	if m == nil {
		return Class{}
	}
	return Class{Mutates: m.mutates, Writes: m.writes, m: m, body: body}
}

// Path returns the namespace path the request addresses. ok is false when
// its method is not addressed by path, or its arguments name no path (an
// anonymous create has no namespace home); err is the body's decode error.
func (c Class) Path() (path string, ok bool, err error) {
	if c.m == nil || c.m.path == nil {
		return "", false, nil
	}
	return c.m.path(c.body)
}

// File returns the file ID the request addresses. ok is false when its
// method does not address one file by ID; err is the body's decode error.
func (c Class) File() (id uint64, ok bool, err error) {
	if c.m == nil || c.m.file == nil {
		return 0, false, nil
	}
	id, err = c.m.file(c.body)
	return id, err == nil, err
}
