package replication

// Replicas returns the number of replica services.
func (m *Manager) Replicas() int { return len(m.replicas) }

// MarkFailed declares a replica down (e.g. its machine crashed). Subsequent
// writes skip it and mark touched files stale.
func (m *Manager) MarkFailed(i int) error {
	if i < 0 || i >= len(m.replicas) {
		return ErrBadReplica
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failed[i] = true
	return nil
}

// Health returns the per-replica failed flags (a copy).
func (m *Manager) Health() []bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]bool, len(m.failed))
	copy(out, m.failed)
	return out
}

// Applied returns the highest applied sequence number.
func (a *Applier) Applied() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.applied
}
