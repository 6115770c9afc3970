package ccache

import (
	"context"

	"repro/internal/fileservice"
)

// The context-free twins the frozen benchmark compiles against. Each is a
// one-line delegate onto the context-first form, which keeps its ...Ctx
// suffix only while the twin occupies the plain name; ROADMAP item 8
// re-signs bench/, deletes this file and renames the survivors.

// ReadAt is ReadAtCtx without a caller's context (bench/wrap.go).
func (c *Client) ReadAt(id fileservice.FileID, off int64, n int) ([]byte, error) {
	return c.ReadAtCtx(context.Background(), id, off, n)
}

// WriteAt is WriteAtCtx without a caller's context (bench/wrap.go).
func (c *Client) WriteAt(id fileservice.FileID, off int64, data []byte) (int, error) {
	return c.WriteAtCtx(context.Background(), id, off, data)
}

// Handler is HandlerCtx without a request context, in the (method, body)
// shape no endpoint or link takes any more (bench/rig.go assigns it to
// cluster.ServiceConfig.Inner, which is never called).
func (s *Server) Handler(method string, body []byte) ([]byte, error) {
	return s.HandlerCtx(context.Background(), method, body)
}
