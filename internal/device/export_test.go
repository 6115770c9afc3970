package device

// Failed reports whether the drive is currently failed.
func (d *Disk) Failed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failed
}

// RepairFragment clears a media error without rewriting data: the clearing
// a rewrite does, without the write.
func (d *Disk) RepairFragment(addr int) error {
	if err := d.checkSpan(addr, 1); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.clearCorruption(addr, 1)
	return nil
}

// WithModel sets the timing model.
func WithModel(m Model) Option { return func(d *Disk) { d.model = m } }
