package fileservice

import "context"

// The context-free twins the frozen benchmark compiles against. Each is a
// one-line delegate onto the context-first form, which keeps its ...Ctx
// suffix only while the twin occupies the plain name; ROADMAP item 8
// re-signs bench/, deletes this file and renames the survivors.

// ReadAt is ReadAtCtx without a caller's context (bench/probe.go;
// agent.FileService's context-free half, which bench/wrap.go calls).
func (s *Service) ReadAt(id FileID, off int64, n int) ([]byte, error) {
	return s.ReadAtCtx(context.Background(), id, off, n)
}

// WriteAt is WriteAtCtx without a caller's context (bench/probe.go;
// agent.FileService's context-free half, which bench/wrap.go calls).
func (s *Service) WriteAt(id FileID, off int64, data []byte) (int, error) {
	return s.WriteAtCtx(context.Background(), id, off, data)
}
