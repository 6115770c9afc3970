package rpcfs_test

import (
	"bytes"
	"testing"

	"repro/internal/fit"
)

// cachedReadAllocBudget is the CI allocation gate for the full remote read
// path: agent-visible ReadAt → binary payload codec → multiplexed binary
// transport → server worker → fileservice (block-cache hit) → response.
// With the hand-rolled payload codec on both sides the path runs at ~13
// allocations per op (reply buffer, frame bookkeeping, and the result
// copy); the budget leaves ~2x headroom. A jump past it means per-call
// encoder state, per-frame wire garbage, or an extra body copy crept back
// in.
const cachedReadAllocBudget = 25

func TestCachedReadAllocBudgetOverMux(t *testing.T) {
	_, cl := newRemote(t)
	id, err := cl.CreatePath(fit.Attributes{}, "/alloc/file")
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xEE}, 4096)
	if _, err := cl.WriteAt(id, 0, data); err != nil {
		t.Fatal(err)
	}
	// Warm the server's block cache so the measured reads never touch the
	// device layer.
	if _, err := cl.ReadAt(id, 0, len(data)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		got, err := cl.ReadAt(id, 0, len(data))
		if err != nil || len(got) != len(data) {
			t.Fatalf("ReadAt = %d bytes, %v", len(got), err)
		}
	})
	if allocs > cachedReadAllocBudget {
		t.Fatalf("cached remote read allocates %.1f/op, budget %d", allocs, cachedReadAllocBudget)
	}
}
