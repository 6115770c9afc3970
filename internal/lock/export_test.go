package lock

// HeldModes returns the modes txn currently holds on the item (diagnostic).
func (m *Manager) HeldModes(txn TxnID, level Level, id ItemID) []Mode {
	length, err := normLength(level, id)
	if err != nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var modes []Mode
	for _, it := range m.tables[m.tableKey(level)] {
		if !it.sameItem(level, id.File, id.Offset, length) {
			continue
		}
		for _, h := range it.holders {
			if h.txn == txn {
				modes = append(modes, h.mode)
			}
		}
	}
	return modes
}
