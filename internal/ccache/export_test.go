package ccache

import (
	"fmt"

	"repro/internal/fileservice"
)

// The tests live in package ccache_test — their rig is built on core.New,
// and core imports this package — so the few unexported things they touch
// are exported here, to them only.

// BusyMarker is the recall-in-progress marker IsBusy matches.
const BusyMarker = busyMarker

// SweepOnce runs one pass of the server's lease sweeper.
func (s *Server) SweepOnce() { s.sweepOnce() }

// DebugState describes one file's cache state for a failing test's log.
func (c *Client) DebugState(id fileservice.FileID) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.files[id]
	if st == nil {
		return "no state"
	}
	desc := fmt.Sprintf("mode=%d ver=%d ndirty=%d expires-live=%v blocks=%d",
		st.mode, st.ver, st.ndirty, c.clock.Now() < st.expires, len(st.blocks))
	if cb := st.blocks[0]; cb != nil {
		desc += fmt.Sprintf(" block0=%d", cb.data[0])
	}
	return desc
}

// MetricNames lists every metric name the package records, for the
// metric-name audit.
var MetricNames = []string{
	MetricHits,
	MetricMisses,
	MetricRecalls,
	MetricFlushBlocks,
	MetricLeaseGrants,
	MetricLeaseRecalls,
	MetricLeaseExpired,
	MetricLeaseBroken,
	MetricRecallWaitNS,
}

// DirtyBlocks reports the number of unflushed dirty blocks (tests and
// the workload harness).
func (c *Client) DirtyBlocks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dirty
}

// Holders reports the live holder count for one file (tests).
func (s *Server) Holders(file uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.files[file]
	if f == nil {
		return 0
	}
	return len(f.holders)
}
