package agent

// TransactionAgentRunning reports whether the event-driven transaction agent
// currently exists (§7).
func (m *Machine) TransactionAgentRunning() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.txnAgent != nil
}
