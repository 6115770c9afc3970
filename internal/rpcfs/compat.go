package rpcfs

import (
	"context"

	"repro/internal/fileservice"
)

// The context-free half of agent.FileService's data path, which the frozen
// benchmark calls through its taps (bench/wrap.go) and every implementation
// therefore still carries. Each is a one-line delegate onto the
// context-first form, which keeps its ...Ctx suffix only while the twin
// occupies the plain name; ROADMAP item 8 re-signs bench/, deletes this file
// and renames the survivors.

// ReadAt is ReadAtCtx without a caller's context (bench/wrap.go).
func (c *Client) ReadAt(id fileservice.FileID, off int64, n int) ([]byte, error) {
	return c.ReadAtCtx(context.Background(), id, off, n)
}

// WriteAt is WriteAtCtx without a caller's context (bench/wrap.go).
func (c *Client) WriteAt(id fileservice.FileID, off int64, data []byte) (int, error) {
	return c.WriteAtCtx(context.Background(), id, off, data)
}
