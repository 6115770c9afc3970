package naming

import "fmt"

// Unregister removes the entry exactly matching the attributed name.
func (s *Service) Unregister(name Name) error {
	key := name.String()
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.byName[key]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	s.removeLocked(r)
	return nil
}

// Len returns the number of registered entries.
func (s *Service) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byName)
}
