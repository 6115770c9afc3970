package txn

import "repro/internal/lock"

// IsChild reports whether the transaction is a subtransaction.
func (s *Service) IsChild(id TxnID) bool {
	t, err := s.get(id)
	if err != nil {
		return false
	}
	return t.parent != nil
}

// Locks exposes the lock manager (for sweepers and experiments).
func (s *Service) Locks() *lock.Manager { return s.locks }
