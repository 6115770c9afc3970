package cluster

import (
	"context"

	"repro/internal/fileservice"
)

// What the frozen benchmark compiles against: the context-free twins, each
// a one-line delegate onto the context-first form, which keeps its ...Ctx
// suffix only while the twin occupies the plain name, and one inert method.
// ROADMAP item 8 re-signs bench/, deletes this file and renames the
// survivors. (The inert config fields bench/rig.go sets —
// ServiceConfig.Inner and Wire, RouterConfig.Wire — are marked where they
// are declared.)

// ReadAt is ReadAtCtx without a caller's context (bench/wrap.go).
func (r *Router) ReadAt(id fileservice.FileID, off int64, n int) ([]byte, error) {
	return r.ReadAtCtx(context.Background(), id, off, n)
}

// WriteAt is WriteAtCtx without a caller's context (bench/wrap.go).
func (r *Router) WriteAt(id fileservice.FileID, off int64, data []byte) (int, error) {
	return r.WriteAtCtx(context.Background(), id, off, data)
}

// ReplBarrier is inert: bench/rig.go installs it as txn.GroupCommitConfig's
// Barrier, which is inert too. A replicated mutation is acknowledged after
// its own ship is confirmed (execReplicated), and by nothing else.
func (s *Service) ReplBarrier() error { return nil }
