// Package freespace manages the free space of one disk: a bitmap plus the
// paper's 64×64 table of contiguous free runs (§4).
//
// The bitmap is the source of truth: one bit per 2 KB fragment. On top of it
// sits a 64-row run table; row r caches the start addresses of free runs of
// exactly r contiguous fragments (row 64 also holds longer runs, with their
// true length). The table is initialized and refreshed by scanning the
// bitmap, and lets the allocator answer "is a run of n contiguous fragments
// available?" without touching the bitmap — the paper's stated purpose for
// the array. Each row holds at most 64 cached runs; uncached runs are
// rediscovered by a rescan when the table runs dry.
//
// The package also provides a first-fit bitmap-scan allocator used as the
// baseline in experiment E4.
package freespace

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

// TableRows and TableCols are the dimensions of the run table from the
// paper: "a two dimensional array of the order of 64 rows and 64 columns".
const (
	TableRows = 64
	TableCols = 64
)

// Errors returned by the allocator.
var (
	// ErrNoSpace reports that fewer than the requested number of fragments
	// are free anywhere on the disk.
	ErrNoSpace = errors.New("freespace: disk full")
	// ErrNoContiguousRun reports that enough fragments are free but no
	// single run of the requested length exists.
	ErrNoContiguousRun = errors.New("freespace: no contiguous run of requested length")
	// ErrNotAllocated reports a Free of fragments that are already free.
	ErrNotAllocated = errors.New("freespace: fragment not allocated")
	// ErrAllocated reports an AllocateAt of fragments already in use.
	ErrAllocated = errors.New("freespace: fragment already allocated")
	// ErrOutOfRange reports an address beyond the managed capacity.
	ErrOutOfRange = errors.New("freespace: address out of range")
)

// Run is a contiguous span of free fragments.
type Run struct {
	Start int
	Len   int
}

// Stats counts the work the allocator has done, in the units E4 compares:
// how often the run table answered directly versus how many bitmap words a
// scan had to touch.
type Stats struct {
	TableHits    int64 // allocations satisfied from the run table
	Rebuilds     int64 // full bitmap scans to refresh the table
	WordsScanned int64 // bitmap words examined (rebuilds + first-fit scans)
	FirstFitUses int64 // allocations via the baseline first-fit path
}

// Map manages the free space of a disk of Capacity fragments. All fragments
// start free. Map is safe for concurrent use.
type Map struct {
	mu       sync.Mutex
	capacity int
	words    []uint64 // bit set ⇒ fragment allocated
	// summary has bit j set ⇔ words[j] != 0, so a neighbour search skips
	// 64 empty words at a time instead of walking a free tail word by word.
	summary []uint64
	free    int // number of free fragments
	// rows[r] caches free runs of length r (r in 1..TableRows); rows[TableRows]
	// additionally holds longer runs with their true length.
	rows  [TableRows + 1][]Run
	stats Stats
}

// NewMap returns a Map managing capacity fragments, all free.
func NewMap(capacity int) (*Map, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("freespace: invalid capacity %d", capacity)
	}
	m := &Map{
		capacity: capacity,
		words:    make([]uint64, (capacity+63)/64),
		summary:  make([]uint64, (capacity+64*64-1)/(64*64)),
		free:     capacity,
	}
	m.rebuildLocked()
	return m, nil
}

// FreeCount returns the number of free fragments.
func (m *Map) FreeCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.free
}

// Stats returns a copy of the allocator's work counters.
func (m *Map) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// bit helpers ---------------------------------------------------------------

func (m *Map) isSet(i int) bool { return m.words[i/64]&(1<<(i%64)) != 0 }

func (m *Map) set(i int) {
	w := i / 64
	m.words[w] |= 1 << (i % 64)
	m.summary[w/64] |= 1 << (w % 64)
}

func (m *Map) clear(i int) {
	w := i / 64
	m.words[w] &^= 1 << (i % 64)
	if m.words[w] == 0 {
		m.summary[w/64] &^= 1 << (w % 64)
	}
}

// nextSet returns the lowest allocated address ≥ i, or the capacity when
// everything from i up is free. Bits beyond the capacity are never set.
func (m *Map) nextSet(i int) int {
	if i >= m.capacity {
		return m.capacity
	}
	w := i / 64
	if x := m.words[w] >> (i % 64); x != 0 {
		return i + bits.TrailingZeros64(x)
	}
	// The first nonempty word after w, found through the summary.
	for w++; w < len(m.words); w = (w/64 + 1) * 64 {
		if s := m.summary[w/64] >> (w % 64); s != 0 {
			w += bits.TrailingZeros64(s)
			return w*64 + bits.TrailingZeros64(m.words[w])
		}
	}
	return m.capacity
}

// prevSet returns the highest allocated address < i, or -1 when everything
// below i is free.
func (m *Map) prevSet(i int) int {
	if i <= 0 {
		return -1
	}
	j := i - 1
	w := j / 64
	if x := m.words[w] << (63 - j%64); x != 0 {
		return j - bits.LeadingZeros64(x)
	}
	// The last nonempty word before w, found through the summary.
	for w--; w >= 0; w = w/64*64 - 1 {
		if s := m.summary[w/64] << (63 - w%64); s != 0 {
			w -= bits.LeadingZeros64(s)
			return w*64 + 63 - bits.LeadingZeros64(m.words[w])
		}
	}
	return -1
}

func (m *Map) checkSpan(start, n int) error {
	if n <= 0 || start < 0 || start+n > m.capacity {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfRange, start, start+n, m.capacity)
	}
	return nil
}

// run table -----------------------------------------------------------------

// rowFor returns the table row index for a run of length n.
func rowFor(n int) int {
	if n > TableRows {
		return TableRows
	}
	return n
}

// cacheRun inserts a free run into the table if its row has space.
func (m *Map) cacheRun(r Run) {
	row := rowFor(r.Len)
	if len(m.rows[row]) < TableCols {
		m.rows[row] = append(m.rows[row], r)
	}
}

// takeRun removes and returns a cached run of length ≥ n, preferring the
// smallest adequate row (best fit at row granularity). ok is false when no
// cached run is long enough.
func (m *Map) takeRun(n int) (Run, bool) {
	for row := rowFor(n); row <= TableRows; row++ {
		for i, r := range m.rows[row] {
			if r.Len < n {
				continue // only possible in the overflow row
			}
			last := len(m.rows[row]) - 1
			m.rows[row][i] = m.rows[row][last]
			m.rows[row] = m.rows[row][:last]
			return r, true
		}
	}
	return Run{}, false
}

// takeRunNear removes and returns the cached run of length ≥ n whose start
// is closest to hint.
func (m *Map) takeRunNear(hint, n int) (Run, bool) {
	bestRow, bestIdx, bestDist := -1, -1, 0
	for row := rowFor(n); row <= TableRows; row++ {
		for i, r := range m.rows[row] {
			if r.Len < n {
				continue
			}
			d := r.Start - hint
			if d < 0 {
				d = -d
			}
			if bestRow == -1 || d < bestDist {
				bestRow, bestIdx, bestDist = row, i, d
			}
		}
	}
	if bestRow == -1 {
		return Run{}, false
	}
	r := m.rows[bestRow][bestIdx]
	last := len(m.rows[bestRow]) - 1
	m.rows[bestRow][bestIdx] = m.rows[bestRow][last]
	m.rows[bestRow] = m.rows[bestRow][:last]
	return r, true
}

// rebuildLocked rescans the bitmap and refills the run table. Callers must
// hold m.mu.
func (m *Map) rebuildLocked() {
	for i := range m.rows {
		m.rows[i] = nil
	}
	m.stats.Rebuilds++
	m.stats.WordsScanned += int64(len(m.words))
	m.eachFreeRunLocked(m.cacheRun)
}

// eachFreeRunLocked calls fn with every maximal free run, in address order.
// Callers must hold m.mu.
func (m *Map) eachFreeRunLocked(fn func(Run)) {
	start := -1
	for i := 0; i < m.capacity; i++ {
		if !m.isSet(i) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			fn(Run{Start: start, Len: i - start})
			start = -1
		}
	}
	if start >= 0 {
		fn(Run{Start: start, Len: m.capacity - start})
	}
}

// allocation ----------------------------------------------------------------

// markAllocated sets bits for run r's first n fragments and returns any
// remainder to the table.
func (m *Map) markAllocated(r Run, n int) int {
	for i := r.Start; i < r.Start+n; i++ {
		m.set(i)
	}
	m.free -= n
	if r.Len > n {
		m.cacheRun(Run{Start: r.Start + n, Len: r.Len - n})
	}
	return r.Start
}

// Allocate finds n contiguous free fragments and marks them allocated,
// returning the start address. It consults the run table first and rescans
// the bitmap once if the table has no adequate run. If no contiguous run of
// length n exists it returns ErrNoContiguousRun (or ErrNoSpace if fewer than
// n fragments are free in total).
func (m *Map) Allocate(n int) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.allocateLocked(n, -1)
}

// AllocateNear behaves like Allocate but prefers the cached run whose start
// is closest to hint — used to place a file's first data block next to its
// file index table (§5).
func (m *Map) AllocateNear(hint, n int) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.allocateLocked(n, hint)
}

func (m *Map) allocateLocked(n, hint int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("%w: n=%d", ErrOutOfRange, n)
	}
	if n > m.free {
		return 0, fmt.Errorf("%w: want %d, %d free", ErrNoSpace, n, m.free)
	}
	take := func() (Run, bool) {
		if hint >= 0 {
			return m.takeRunNear(hint, n)
		}
		return m.takeRun(n)
	}
	if r, ok := take(); ok {
		m.stats.TableHits++
		return m.markAllocated(r, n), nil
	}
	// The table may simply be stale (runs uncached due to row overflow or
	// churn); rebuild once from the bitmap before giving up.
	m.rebuildLocked()
	if r, ok := take(); ok {
		return m.markAllocated(r, n), nil
	}
	return 0, fmt.Errorf("%w: want %d, %d free", ErrNoContiguousRun, n, m.free)
}

// AllocateFirstFit is the baseline allocator for experiment E4: it ignores
// the run table and scans the bitmap from address zero for the first free
// run of length n.
func (m *Map) AllocateFirstFit(n int) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n <= 0 {
		return 0, fmt.Errorf("%w: n=%d", ErrOutOfRange, n)
	}
	if n > m.free {
		return 0, fmt.Errorf("%w: want %d, %d free", ErrNoSpace, n, m.free)
	}
	m.stats.FirstFitUses++
	runStart, runLen := -1, 0
	for i := 0; i < m.capacity; i++ {
		if i%64 == 0 {
			m.stats.WordsScanned++
			// Skip fully-allocated words wholesale, as a real scan would.
			if m.words[i/64] == ^uint64(0) && i+64 <= m.capacity {
				runStart, runLen = -1, 0
				i += 63
				continue
			}
		}
		if m.isSet(i) {
			runStart, runLen = -1, 0
			continue
		}
		if runStart < 0 {
			runStart = i
		}
		runLen++
		if runLen == n {
			for j := runStart; j < runStart+n; j++ {
				m.set(j)
			}
			m.free -= n
			// The table now caches runs that overlap the allocation; rebuild
			// lazily on next table-path allocation rather than here. Drop
			// stale entries eagerly to keep the invariant simple.
			m.dropOverlapping(runStart, n)
			return runStart, nil
		}
	}
	return 0, fmt.Errorf("%w: want %d, %d free", ErrNoContiguousRun, n, m.free)
}

// dropOverlapping removes cached runs that intersect [start, start+n), and
// re-caches their non-overlapping remainders.
func (m *Map) dropOverlapping(start, n int) {
	end := start + n
	for row := 1; row <= TableRows; row++ {
		kept := m.rows[row][:0]
		var recache []Run
		for _, r := range m.rows[row] {
			rEnd := r.Start + r.Len
			if rEnd <= start || r.Start >= end {
				kept = append(kept, r)
				continue
			}
			if r.Start < start {
				recache = append(recache, Run{Start: r.Start, Len: start - r.Start})
			}
			if rEnd > end {
				recache = append(recache, Run{Start: end, Len: rEnd - end})
			}
		}
		m.rows[row] = kept
		for _, r := range recache {
			m.cacheRun(r)
		}
	}
}

// AllocateAt marks the exact span [start, start+n) allocated, failing with
// ErrAllocated if any fragment in it is already in use. It is used to lay
// out fixed structures (superblocks, the baseline's inode area).
func (m *Map) AllocateAt(start, n int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkSpan(start, n); err != nil {
		return err
	}
	for i := start; i < start+n; i++ {
		if m.isSet(i) {
			return fmt.Errorf("%w: fragment %d", ErrAllocated, i)
		}
	}
	for i := start; i < start+n; i++ {
		m.set(i)
	}
	m.free -= n
	m.dropOverlapping(start, n)
	return nil
}

// Free returns the span [start, start+n) to the free pool. Freeing an
// already-free fragment returns ErrNotAllocated and frees nothing. The
// freed span is coalesced with free neighbours before being cached, because
// "generally, several contiguous blocks and fragments are allocated or freed
// simultaneously" (§4).
func (m *Map) Free(start, n int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkSpan(start, n); err != nil {
		return err
	}
	for i := start; i < start+n; i++ {
		if !m.isSet(i) {
			return fmt.Errorf("%w: fragment %d", ErrNotAllocated, i)
		}
	}
	for i := start; i < start+n; i++ {
		m.clear(i)
	}
	m.free += n
	// Coalesce with adjacent free fragments. On a mostly empty disk the free
	// neighbour is most of the disk, so the search skips empty words through
	// the summary.
	lo := m.prevSet(start) + 1
	hi := m.nextSet(start + n)
	// Neighbouring free spans were already cached as separate runs; those
	// entries are now stale. Remove any cached run overlapping the coalesced
	// span, then cache the whole thing.
	m.removeCachedWithin(lo, hi-lo)
	m.cacheRun(Run{Start: lo, Len: hi - lo})
	return nil
}

// removeCachedWithin drops cached runs fully inside [start, start+n).
func (m *Map) removeCachedWithin(start, n int) {
	end := start + n
	for row := 1; row <= TableRows; row++ {
		kept := m.rows[row][:0]
		for _, r := range m.rows[row] {
			if r.Start >= start && r.Start+r.Len <= end {
				continue
			}
			kept = append(kept, r)
		}
		m.rows[row] = kept
	}
}

// Bitmap returns a copy of the raw bitmap words (for persistence by the
// disk service and for fsck).
func (m *Map) Bitmap() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]uint64, len(m.words))
	copy(out, m.words)
	return out
}

// LoadBitmap replaces the bitmap with the given words (persisted state) and
// rebuilds the run table by scanning it, as the paper specifies for
// initialization (§4).
func (m *Map) LoadBitmap(words []uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(words) != len(m.words) {
		return fmt.Errorf("freespace: bitmap has %d words, want %d", len(words), len(m.words))
	}
	copy(m.words, words)
	// Mask bits beyond capacity so popcounts stay honest.
	if rem := m.capacity % 64; rem != 0 {
		m.words[len(m.words)-1] &= (1 << rem) - 1
	}
	clear(m.summary)
	allocated := 0
	for j, w := range m.words {
		if w != 0 {
			m.summary[j/64] |= 1 << (j % 64)
		}
		allocated += bits.OnesCount64(w)
	}
	m.free = m.capacity - allocated
	m.rebuildLocked()
	return nil
}
