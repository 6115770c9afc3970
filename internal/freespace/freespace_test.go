package freespace

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mustMap(t *testing.T, capacity int) *Map {
	t.Helper()
	m, err := NewMap(capacity)
	if err != nil {
		t.Fatalf("NewMap(%d): %v", capacity, err)
	}
	return m
}

func TestNewMapInvalid(t *testing.T) {
	for _, c := range []int{0, -1} {
		if _, err := NewMap(c); err == nil {
			t.Errorf("NewMap(%d) succeeded, want error", c)
		}
	}
}

func TestAllocateBasic(t *testing.T) {
	m := mustMap(t, 128)
	start, err := m.Allocate(4)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if m.FreeCount() != 124 {
		t.Fatalf("FreeCount = %d, want 124", m.FreeCount())
	}
	for i := start; i < start+4; i++ {
		if !m.Allocated(i) {
			t.Fatalf("fragment %d not marked allocated", i)
		}
	}
}

func TestAllocateDistinct(t *testing.T) {
	m := mustMap(t, 64)
	seen := map[int]bool{}
	for i := 0; i < 16; i++ {
		start, err := m.Allocate(4)
		if err != nil {
			t.Fatalf("Allocate #%d: %v", i, err)
		}
		for f := start; f < start+4; f++ {
			if seen[f] {
				t.Fatalf("fragment %d allocated twice", f)
			}
			seen[f] = true
		}
	}
	if _, err := m.Allocate(1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("Allocate on full disk = %v, want ErrNoSpace", err)
	}
}

func TestAllocateNoContiguousRun(t *testing.T) {
	m := mustMap(t, 16)
	// Allocate everything, then free alternating single fragments.
	if _, err := m.Allocate(16); err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	for i := 0; i < 16; i += 2 {
		if err := m.Free(i, 1); err != nil {
			t.Fatalf("Free(%d): %v", i, err)
		}
	}
	if _, err := m.Allocate(2); !errors.Is(err, ErrNoContiguousRun) {
		t.Fatalf("Allocate(2) on fragmented disk = %v, want ErrNoContiguousRun", err)
	}
	// Single fragments are still available.
	if _, err := m.Allocate(1); err != nil {
		t.Fatalf("Allocate(1): %v", err)
	}
}

func TestFreeAndCoalesce(t *testing.T) {
	m := mustMap(t, 64)
	a, err := m.Allocate(8)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	b, err := m.Allocate(8)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	c, err := m.Allocate(48)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	// Free the two 8-fragment spans; they are adjacent and must coalesce.
	if err := m.Free(a, 8); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if err := m.Free(b, 8); err != nil {
		t.Fatalf("Free: %v", err)
	}
	got, err := m.Allocate(16)
	if err != nil {
		t.Fatalf("Allocate(16) after coalescing frees: %v", err)
	}
	if got != min(a, b) {
		t.Fatalf("coalesced allocation at %d, want %d", got, min(a, b))
	}
	_ = c
}

func TestFreeErrors(t *testing.T) {
	m := mustMap(t, 32)
	if err := m.Free(0, 1); !errors.Is(err, ErrNotAllocated) {
		t.Fatalf("Free of free fragment = %v, want ErrNotAllocated", err)
	}
	if err := m.Free(-1, 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Free(-1) = %v, want ErrOutOfRange", err)
	}
	if err := m.Free(30, 4); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Free past end = %v, want ErrOutOfRange", err)
	}
}

func TestAllocateAt(t *testing.T) {
	m := mustMap(t, 32)
	if err := m.AllocateAt(4, 4); err != nil {
		t.Fatalf("AllocateAt: %v", err)
	}
	if err := m.AllocateAt(6, 2); !errors.Is(err, ErrAllocated) {
		t.Fatalf("overlapping AllocateAt = %v, want ErrAllocated", err)
	}
	// The table must no longer hand out the reserved span.
	for i := 0; i < 28; i++ {
		start, err := m.Allocate(1)
		if err != nil {
			t.Fatalf("Allocate(1) #%d: %v", i, err)
		}
		if start >= 4 && start < 8 {
			t.Fatalf("Allocate handed out reserved fragment %d", start)
		}
	}
}

func TestAllocateNearPrefersHint(t *testing.T) {
	m := mustMap(t, 1024)
	// Carve the space into separated free runs.
	if err := m.AllocateAt(0, 1024); err != nil {
		t.Fatalf("AllocateAt: %v", err)
	}
	for _, start := range []int{0, 500, 1000} {
		if err := m.Free(start, 8); err != nil {
			t.Fatalf("Free(%d): %v", start, err)
		}
	}
	got, err := m.AllocateNear(501, 8)
	if err != nil {
		t.Fatalf("AllocateNear: %v", err)
	}
	if got != 500 {
		t.Fatalf("AllocateNear(501) = %d, want 500", got)
	}
}

func TestFirstFitBaseline(t *testing.T) {
	m := mustMap(t, 256)
	a, err := m.AllocateFirstFit(4)
	if err != nil {
		t.Fatalf("AllocateFirstFit: %v", err)
	}
	if a != 0 {
		t.Fatalf("first fit on empty disk = %d, want 0", a)
	}
	b, err := m.AllocateFirstFit(4)
	if err != nil {
		t.Fatalf("AllocateFirstFit: %v", err)
	}
	if b != 4 {
		t.Fatalf("second first-fit = %d, want 4", b)
	}
	// Free the first span; first fit must reuse it.
	if err := m.Free(a, 4); err != nil {
		t.Fatalf("Free: %v", err)
	}
	c, err := m.AllocateFirstFit(2)
	if err != nil {
		t.Fatalf("AllocateFirstFit: %v", err)
	}
	if c != 0 {
		t.Fatalf("first fit after free = %d, want 0", c)
	}
	if m.Stats().FirstFitUses != 3 {
		t.Fatalf("FirstFitUses = %d, want 3", m.Stats().FirstFitUses)
	}
}

func TestTableFasterThanFirstFit(t *testing.T) {
	// The run table should answer allocations with far fewer bitmap words
	// scanned than first-fit on a large, mostly-allocated disk (claim E4).
	const capacity = 64 * 1024
	table := mustMap(t, capacity)
	ff := mustMap(t, capacity)
	// Fill most of the disk, leaving free space only near the end.
	if err := table.AllocateAt(0, capacity-128); err != nil {
		t.Fatal(err)
	}
	if err := ff.AllocateAt(0, capacity-128); err != nil {
		t.Fatal(err)
	}
	tBefore, fBefore := table.Stats().WordsScanned, ff.Stats().WordsScanned
	for i := 0; i < 16; i++ {
		if _, err := table.Allocate(4); err != nil {
			t.Fatalf("table Allocate: %v", err)
		}
		if _, err := ff.AllocateFirstFit(4); err != nil {
			t.Fatalf("first-fit Allocate: %v", err)
		}
	}
	tScanned := table.Stats().WordsScanned - tBefore
	fScanned := ff.Stats().WordsScanned - fBefore
	if tScanned >= fScanned {
		t.Fatalf("run table scanned %d words, first fit %d; table should scan fewer", tScanned, fScanned)
	}
}

func TestLargestRun(t *testing.T) {
	m := mustMap(t, 64)
	if got := m.LargestRun(); got != 64 {
		t.Fatalf("LargestRun on empty disk = %d, want 64", got)
	}
	if err := m.AllocateAt(10, 10); err != nil {
		t.Fatal(err)
	}
	if got := m.LargestRun(); got != 44 {
		t.Fatalf("LargestRun = %d, want 44", got)
	}
}

func TestFreeRuns(t *testing.T) {
	m := mustMap(t, 32)
	if err := m.AllocateAt(8, 8); err != nil {
		t.Fatal(err)
	}
	runs := m.FreeRuns()
	want := []Run{{0, 8}, {16, 16}}
	if len(runs) != len(want) {
		t.Fatalf("FreeRuns = %v, want %v", runs, want)
	}
	for i := range want {
		if runs[i] != want[i] {
			t.Fatalf("FreeRuns[%d] = %v, want %v", i, runs[i], want[i])
		}
	}
}

func TestBitmapPersistRoundTrip(t *testing.T) {
	m := mustMap(t, 200)
	for i := 0; i < 10; i++ {
		if _, err := m.Allocate(3); err != nil {
			t.Fatal(err)
		}
	}
	words := m.Bitmap()
	m2 := mustMap(t, 200)
	if err := m2.LoadBitmap(words); err != nil {
		t.Fatalf("LoadBitmap: %v", err)
	}
	if m2.FreeCount() != m.FreeCount() {
		t.Fatalf("restored FreeCount = %d, want %d", m2.FreeCount(), m.FreeCount())
	}
	r1, r2 := m.FreeRuns(), m2.FreeRuns()
	if len(r1) != len(r2) {
		t.Fatalf("restored FreeRuns = %v, want %v", r2, r1)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("restored run %d = %v, want %v", i, r2[i], r1[i])
		}
	}
}

func TestLoadBitmapWrongSize(t *testing.T) {
	m := mustMap(t, 128)
	if err := m.LoadBitmap(make([]uint64, 1)); err == nil {
		t.Fatal("LoadBitmap with wrong size succeeded")
	}
}

func TestRunTableOverflowStillCorrect(t *testing.T) {
	// Create more than 64 single-fragment holes; the row overflows but the
	// bitmap rescan must still find them all.
	const capacity = 512
	m := mustMap(t, capacity)
	if _, err := m.Allocate(capacity); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < capacity; i += 2 { // 256 single-fragment holes
		if err := m.Free(i, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < capacity/2; i++ {
		if _, err := m.Allocate(1); err != nil {
			t.Fatalf("Allocate(1) #%d: %v (overflowed rows must fall back to rescan)", i, err)
		}
	}
	if m.FreeCount() != 0 {
		t.Fatalf("FreeCount = %d, want 0", m.FreeCount())
	}
}

func TestLongRunsInOverflowRow(t *testing.T) {
	// Runs longer than 64 fragments live in row 64 with their true length.
	m := mustMap(t, 1024)
	start, err := m.Allocate(100)
	if err != nil {
		t.Fatalf("Allocate(100): %v", err)
	}
	if start != 0 {
		t.Fatalf("Allocate(100) = %d, want 0", start)
	}
	// The 924-fragment remainder must still be allocatable in one piece.
	if _, err := m.Allocate(900); err != nil {
		t.Fatalf("Allocate(900) from remainder: %v", err)
	}
}

// property tests -------------------------------------------------------------

// TestQuickAllocFreeConservation drives a random alloc/free sequence and
// checks the conservation invariant: FreeCount always equals capacity minus
// outstanding allocations, and allocations never overlap.
func TestQuickAllocFreeConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const capacity = 1024
		m, err := NewMap(capacity)
		if err != nil {
			return false
		}
		type alloc struct{ start, n int }
		var live []alloc
		outstanding := 0
		for step := 0; step < 300; step++ {
			if rng.Intn(2) == 0 || len(live) == 0 {
				n := 1 + rng.Intn(16)
				start, err := m.Allocate(n)
				if err != nil {
					if !errors.Is(err, ErrNoSpace) && !errors.Is(err, ErrNoContiguousRun) {
						t.Logf("unexpected error: %v", err)
						return false
					}
					continue
				}
				live = append(live, alloc{start, n})
				outstanding += n
			} else {
				i := rng.Intn(len(live))
				a := live[i]
				if err := m.Free(a.start, a.n); err != nil {
					t.Logf("Free(%d,%d): %v", a.start, a.n, err)
					return false
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				outstanding -= a.n
			}
			if m.FreeCount() != capacity-outstanding {
				t.Logf("conservation violated: free=%d want %d", m.FreeCount(), capacity-outstanding)
				return false
			}
		}
		// No two live allocations overlap.
		used := make([]bool, capacity)
		for _, a := range live {
			for i := a.start; i < a.start+a.n; i++ {
				if used[i] {
					t.Logf("overlap at %d", i)
					return false
				}
				used[i] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFreeRunsMatchBitmap checks that FreeRuns is always consistent
// with FreeCount after random churn.
func TestQuickFreeRunsMatchBitmap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, err := NewMap(512)
		if err != nil {
			return false
		}
		var live [][2]int
		for step := 0; step < 150; step++ {
			if rng.Intn(2) == 0 || len(live) == 0 {
				n := 1 + rng.Intn(8)
				if start, err := m.Allocate(n); err == nil {
					live = append(live, [2]int{start, n})
				}
			} else {
				i := rng.Intn(len(live))
				if err := m.Free(live[i][0], live[i][1]); err != nil {
					return false
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		total := 0
		prevEnd := -1
		for _, r := range m.FreeRuns() {
			if r.Len <= 0 || r.Start <= prevEnd {
				return false // runs must be positive, ordered, and maximal
			}
			prevEnd = r.Start + r.Len
			total += r.Len
		}
		return total == m.FreeCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFirstFitEquivalence checks both allocators maintain the same
// conservation invariant under interleaved use.
func TestQuickFirstFitEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, err := NewMap(512)
		if err != nil {
			return false
		}
		outstanding := 0
		var live [][2]int
		for step := 0; step < 150; step++ {
			switch {
			case rng.Intn(3) == 0 && len(live) > 0:
				i := rng.Intn(len(live))
				if err := m.Free(live[i][0], live[i][1]); err != nil {
					return false
				}
				outstanding -= live[i][1]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			case rng.Intn(2) == 0:
				n := 1 + rng.Intn(8)
				if start, err := m.Allocate(n); err == nil {
					live = append(live, [2]int{start, n})
					outstanding += n
				}
			default:
				n := 1 + rng.Intn(8)
				if start, err := m.AllocateFirstFit(n); err == nil {
					live = append(live, [2]int{start, n})
					outstanding += n
				}
			}
			if m.FreeCount() != 512-outstanding {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// freeBitwise is the reference for Free: the same steps with the neighbour
// scan done one bit at a time.
func freeBitwise(m *Map, start, n int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkSpan(start, n); err != nil {
		return err
	}
	for i := start; i < start+n; i++ {
		if !m.isSet(i) {
			return ErrNotAllocated
		}
	}
	for i := start; i < start+n; i++ {
		m.clear(i)
	}
	m.free += n
	lo := start
	for lo > 0 && !m.isSet(lo-1) {
		lo--
	}
	hi := start + n
	for hi < m.capacity && !m.isSet(hi) {
		hi++
	}
	m.removeCachedWithin(lo, hi-lo)
	m.cacheRun(Run{Start: lo, Len: hi - lo})
	return nil
}

// nextSetBitwise and prevSetBitwise are the references for nextSet and
// prevSet: the same answers found one bit at a time.
func nextSetBitwise(m *Map, i int) int {
	for ; i < m.capacity; i++ {
		if m.isSet(i) {
			return i
		}
	}
	return m.capacity
}

func prevSetBitwise(m *Map, i int) int {
	for i--; i >= 0; i-- {
		if m.isSet(i) {
			return i
		}
	}
	return -1
}

// checkSummary requires summary bit j to be set exactly when word j is
// nonempty, and no bit beyond the last word.
func checkSummary(t *testing.T, m *Map) {
	t.Helper()
	want := make([]uint64, len(m.summary))
	for j, w := range m.words {
		if w != 0 {
			want[j/64] |= 1 << (j % 64)
		}
	}
	if !reflect.DeepEqual(m.summary, want) {
		t.Fatalf("summary %x, words say %x", m.summary, want)
	}
}

// allocatedRuns returns the maximal runs of allocated fragments.
func allocatedRuns(m *Map) []Run {
	var runs []Run
	for i := 0; i < m.capacity; i++ {
		if !m.isSet(i) {
			continue
		}
		j := i
		for j < m.capacity && m.isSet(j) {
			j++
		}
		runs = append(runs, Run{Start: i, Len: j - i})
		i = j
	}
	return runs
}

// TestFreeMatchesBitwiseReference drives the same random sequence of
// AllocateAt, AllocateFirstFit, LoadBitmap and Free into two maps, one freed
// through Free and one through the bit-at-a-time reference, and after every
// step requires identical bitmaps, free counts and run tables, a summary
// that agrees with the bitmap, the coalesced run of each Free to be the one
// a bit-at-a-time neighbour search finds, and nextSet and prevSet to answer
// as their bitwise references at the disk's edges and at random probes. The
// capacities sit below, at and off a multiple of the word size and of a
// summary word's 4096 fragments; spans start at address 0, straddle word
// boundaries, end at the capacity, and now and then cover the whole disk.
func TestFreeMatchesBitwiseReference(t *testing.T) {
	for _, capacity := range []int{1, 63, 64, 65, 128, 199, 4096, 4096 + 37, 3*4096 + 100, 2*4096 - 1} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m, ref := mustMap(t, capacity), mustMap(t, capacity)
			fill := []float64{0.05, 0.5, 0.95}[seed%3]
			type span struct{ start, n int }
			var live []span
			for step := 0; step < 600; step++ {
				switch r := rng.Float64(); {
				case r < 0.02:
					// Reload a perturbed copy of the bitmap; the allocated
					// spans become its maximal allocated runs.
					words := m.Bitmap()
					for k := 0; k < 3; k++ {
						words[rng.Intn(len(words))] ^= rng.Uint64()
					}
					if k := rng.Intn(len(words)); rng.Intn(2) == 0 {
						words[k] = 0
					}
					if err, rerr := m.LoadBitmap(words), ref.LoadBitmap(words); err != nil || rerr != nil {
						t.Fatalf("cap %d seed %d: LoadBitmap = %v, reference %v", capacity, seed, err, rerr)
					}
					live = live[:0]
					for _, run := range allocatedRuns(m) {
						live = append(live, span{run.Start, run.Len})
					}
				case r < 0.1:
					n := 1 + rng.Intn(min(capacity, 16))
					start, err := m.AllocateFirstFit(n)
					rstart, rerr := ref.AllocateFirstFit(n)
					if start != rstart || (err == nil) != (rerr == nil) {
						t.Fatalf("cap %d seed %d: AllocateFirstFit(%d) = %d, %v; reference %d, %v", capacity, seed, n, start, err, rstart, rerr)
					}
					if err == nil {
						live = append(live, span{start, n})
					}
				case r < fill || len(live) == 0:
					n := 1 + rng.Intn(min(capacity, 70))
					start := rng.Intn(capacity - n + 1)
					switch rng.Intn(10) {
					case 0:
						start = 0
					case 1:
						start = capacity - n
					case 2:
						start = min(start/64*64+64-n/2, capacity-n) // straddle a word boundary
						if start < 0 {
							start = 0
						}
					case 3:
						start, n = 0, capacity // both disk edges
					}
					err, rerr := m.AllocateAt(start, n), ref.AllocateAt(start, n)
					if (err == nil) != (rerr == nil) {
						t.Fatalf("cap %d seed %d: AllocateAt(%d,%d) = %v, reference %v", capacity, seed, start, n, err, rerr)
					}
					if err == nil {
						live = append(live, span{start, n})
					}
				default:
					i := rng.Intn(len(live))
					s := live[i]
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					// Free in two pieces now and then, so a free lands between
					// a free and an allocated neighbour.
					pieces := []span{s}
					if s.n > 1 && rng.Intn(2) == 0 {
						cut := 1 + rng.Intn(s.n-1)
						pieces = []span{{s.start + cut, s.n - cut}, {s.start, cut}}
					}
					for _, p := range pieces {
						if err := m.Free(p.start, p.n); err != nil {
							t.Fatalf("cap %d seed %d: Free(%d,%d): %v", capacity, seed, p.start, p.n, err)
						}
						if err := freeBitwise(ref, p.start, p.n); err != nil {
							t.Fatalf("cap %d seed %d: reference Free(%d,%d): %v", capacity, seed, p.start, p.n, err)
						}
						lo, hi := m.prevSet(p.start)+1, m.nextSet(p.start+p.n)
						if rlo, rhi := prevSetBitwise(ref, p.start)+1, nextSetBitwise(ref, p.start+p.n); lo != rlo || hi != rhi {
							t.Fatalf("cap %d seed %d: Free(%d,%d) coalesced [%d,%d), reference [%d,%d)", capacity, seed, p.start, p.n, lo, hi, rlo, rhi)
						}
					}
				}
				if !reflect.DeepEqual(m.words, ref.words) || m.free != ref.free || !reflect.DeepEqual(m.rows, ref.rows) {
					t.Fatalf("cap %d seed %d step %d: diverged from the bit-at-a-time reference\n free %d vs %d\n rows %v\n  vs  %v",
						capacity, seed, step, m.free, ref.free, m.rows, ref.rows)
				}
				checkSummary(t, m)
				for _, i := range []int{0, capacity, capacity - 1, rng.Intn(capacity + 1), rng.Intn(capacity + 1)} {
					if got, want := m.nextSet(i), nextSetBitwise(m, i); got != want {
						t.Fatalf("cap %d seed %d step %d: nextSet(%d) = %d, want %d", capacity, seed, step, i, got, want)
					}
					if got, want := m.prevSet(i), prevSetBitwise(m, i); got != want {
						t.Fatalf("cap %d seed %d step %d: prevSet(%d) = %d, want %d", capacity, seed, step, i, got, want)
					}
				}
			}
			if got := m.Stats().WordsScanned; got != ref.Stats().WordsScanned {
				t.Fatalf("cap %d seed %d: Free counted %d words scanned, reference %d", capacity, seed, got, ref.Stats().WordsScanned)
			}
		}
	}
}
