//go:build race

package txn_test

// raceEnabled gates the allocation budget: under the race detector sync.Pool
// drops a share of what it is handed back, so pooled buffers are reallocated
// and the byte count no longer measures the code.
const raceEnabled = true
