package intentions

// Status returns the intention flag.
func (l *List) Status() Status {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.status
}

// IntentionsForFile returns the records touching one file, in order.
func (l *List) IntentionsForFile(file uint64) []Record {
	var out []Record
	for _, r := range l.GetIntentions() {
		if r.File == file {
			out = append(out, r)
		}
	}
	return out
}

// Files returns the distinct files touched, in first-touch order.
func (l *List) Files() []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for _, r := range l.GetIntentions() {
		if !seen[r.File] {
			seen[r.File] = true
			out = append(out, r.File)
		}
	}
	return out
}

// Len returns the number of intention records.
func (l *List) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.records)
}
