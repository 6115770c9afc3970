package txn

import "context"

// The context-free twins the frozen benchmark compiles against. Each is a
// one-line delegate onto the context-first form, which keeps its ...Ctx
// suffix only while the twin occupies the plain name; ROADMAP item 8
// re-signs bench/, deletes this file and renames the survivors.

// PRead is PReadCtx without a caller's context (bench/probe.go).
func (s *Service) PRead(id TxnID, fid FileID, off int64, n int, forUpdate bool) ([]byte, error) {
	return s.PReadCtx(context.Background(), id, fid, off, n, forUpdate)
}

// PWrite is PWriteCtx without a caller's context (bench/probe.go).
func (s *Service) PWrite(id TxnID, fid FileID, off int64, data []byte) (int, error) {
	return s.PWriteCtx(context.Background(), id, fid, off, data)
}

// End is EndCtx without a caller's context (bench/probe.go).
func (s *Service) End(id TxnID) error {
	return s.EndCtx(context.Background(), id)
}
