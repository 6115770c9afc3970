package stable

// Free releases a span claimed with Allocate.
func (s *Store) Free(start, n int) error { return s.alloc.Free(start, n) }

// FreeCount returns the number of unclaimed stable fragments.
func (s *Store) FreeCount() int { return s.alloc.FreeCount() }
