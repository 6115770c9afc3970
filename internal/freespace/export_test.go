package freespace

// Allocated reports whether fragment addr is allocated.
func (m *Map) Allocated(addr int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if addr < 0 || addr >= m.capacity {
		return false
	}
	return m.isSet(addr)
}

// FreeRuns returns all free runs in address order (for fsck and tests).
func (m *Map) FreeRuns() []Run {
	m.mu.Lock()
	defer m.mu.Unlock()
	var runs []Run
	m.eachFreeRunLocked(func(r Run) { runs = append(runs, r) })
	return runs
}

// LargestRun returns the length of the longest free run on the disk,
// scanning the bitmap.
func (m *Map) LargestRun() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.WordsScanned += int64(len(m.words))
	best, cur := 0, 0
	for i := 0; i < m.capacity; i++ {
		if m.isSet(i) {
			cur = 0
			continue
		}
		cur++
		if cur > best {
			best = cur
		}
	}
	return best
}
