package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/baseline/unixfs"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/diskservice"
	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/freespace"
	"repro/internal/metrics"
)

// bigGeometry is a 256 MB disk used by the file-size sweeps.
var bigGeometry = device.Geometry{FragmentsPerTrack: 32, Tracks: 4096}

// E1DiskReferences reproduces the headline claim of §7: for files up to half
// a megabyte the maximum number of disk references is two — one for the file
// index table and one for the (contiguous) data — while a conventional
// design pays one reference per block plus inode and indirect lookups.
func E1DiskReferences() (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "Cold-read disk references vs file size",
		Claim:   "files <= 512KB need <= 2 disk references (FIT + data); conventional FS needs ~1/block",
		Columns: []string{"file size", "RHODOS refs", "unixfs refs", "RHODOS simtime", "unixfs simtime"},
	}
	sizes := []int{8 << 10, 64 << 10, 256 << 10, 512 << 10, 1 << 20, 4 << 20}

	for _, size := range sizes {
		rhodosRefs, rhodosTime, err := e1Rhodos(size)
		if err != nil {
			return nil, fmt.Errorf("E1 rhodos %d: %w", size, err)
		}
		unixRefs, unixTime, err := e1Unix(size)
		if err != nil {
			return nil, fmt.Errorf("E1 unixfs %d: %w", size, err)
		}
		t.AddRow(fmtSize(size), rhodosRefs, unixRefs, rhodosTime, unixTime)
		if size <= 512<<10 && rhodosRefs > 2 {
			t.Notes = append(t.Notes, fmt.Sprintf("VIOLATION: %s took %d refs", fmtSize(size), rhodosRefs))
		}
	}
	if len(t.Notes) == 0 {
		t.Notes = append(t.Notes, "shape holds: <=2 references up to 512KB; baseline grows ~linearly with blocks")
	}
	return t, nil
}

func e1Rhodos(size int) (int64, string, error) {
	c, err := core.New(core.Config{Geometry: bigGeometry})
	if err != nil {
		return 0, "", err
	}
	defer func() { _ = c.Close() }()
	id, err := c.Files.Create(fit.Attributes{})
	if err != nil {
		return 0, "", err
	}
	data := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(data)
	if _, err := c.Files.WriteAt(id, 0, data); err != nil {
		return 0, "", err
	}
	if err := c.Files.Flush(); err != nil {
		return 0, "", err
	}
	c.InvalidateCaches()
	before := c.Metrics.Snapshot()
	simBefore := c.Metrics.SimTime()
	if _, err := c.Files.ReadAt(id, 0, size); err != nil {
		return 0, "", err
	}
	refs := c.Metrics.Get(metrics.DiskReferences) - before[metrics.DiskReferences]
	return refs, fmtDuration(c.Metrics.SimTime() - simBefore), nil
}

func e1Unix(size int) (int64, string, error) {
	met := metrics.NewSet()
	d, err := device.New(bigGeometry, device.WithMetrics(met))
	if err != nil {
		return 0, "", err
	}
	fs, err := unixfs.Format(d, 64)
	if err != nil {
		return 0, "", err
	}
	ino, err := fs.Create()
	if err != nil {
		return 0, "", err
	}
	data := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(data)
	if _, err := fs.WriteAt(ino, 0, data); err != nil {
		return 0, "", err
	}
	before := met.Get(metrics.DiskReferences)
	simBefore := met.SimTime()
	if _, err := fs.ReadAt(ino, 0, size); err != nil {
		return 0, "", err
	}
	return met.Get(metrics.DiskReferences) - before, fmtDuration(met.SimTime() - simBefore), nil
}

// E2ContiguousTransfer reproduces §4/§5: all contiguous blocks transfer with
// one single invocation of get-block thanks to the FIT count field, versus
// one invocation per block without it.
func E2ContiguousTransfer() (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "Disk operations to read an n-block contiguous file",
		Claim:   "with the 2-byte count field, a contiguous run moves in ONE disk operation",
		Columns: []string{"blocks", "with count field", "per-block (no count)", "speedup"},
	}
	for _, blocks := range []int{1, 4, 16, 64} {
		withCount, perBlock, err := e2Measure(blocks)
		if err != nil {
			return nil, err
		}
		t.AddRow(blocks, withCount, perBlock, float64(perBlock)/float64(withCount))
	}
	t.Notes = append(t.Notes, "the count field collapses n operations into 1 for any contiguous run")
	return t, nil
}

func e2Measure(blocks int) (withCount, perBlock int64, err error) {
	c, err := core.New(core.Config{})
	if err != nil {
		return 0, 0, err
	}
	defer func() { _ = c.Close() }()
	id, err := c.Files.Create(fit.Attributes{})
	if err != nil {
		return 0, 0, err
	}
	data := make([]byte, blocks*fileservice.BlockSize)
	if _, err := c.Files.WriteAt(id, 0, data); err != nil {
		return 0, 0, err
	}
	if err := c.Files.Flush(); err != nil {
		return 0, 0, err
	}
	exts, err := c.Files.Extents(id)
	if err != nil {
		return 0, 0, err
	}
	if len(exts) != 1 {
		return 0, 0, fmt.Errorf("E2 file not contiguous: %d extents", len(exts))
	}
	srv := c.DiskServer(0)
	addr := int(exts[0].Addr)

	// With the count field: one get-block for the whole run.
	srv.InvalidateCache()
	before := c.Metrics.Get(metrics.DiskReferences)
	if _, err := srv.Get(context.Background(), addr, blocks*fileservice.FragmentsPerBlock,
		diskservice.GetOptions{NoReadAhead: true}); err != nil {
		return 0, 0, err
	}
	withCount = c.Metrics.Get(metrics.DiskReferences) - before

	// Without it: the service would not know the blocks are contiguous and
	// issues one get-block per block.
	srv.InvalidateCache()
	before = c.Metrics.Get(metrics.DiskReferences)
	for b := 0; b < blocks; b++ {
		if _, err := srv.Get(context.Background(), addr+b*fileservice.FragmentsPerBlock,
			fileservice.FragmentsPerBlock, diskservice.GetOptions{NoReadAhead: true}); err != nil {
			return 0, 0, err
		}
	}
	perBlock = c.Metrics.Get(metrics.DiskReferences) - before
	return withCount, perBlock, nil
}

// E3FragmentsVsBlocks reproduces §4/§7: storing structural information in
// 2 KB fragments rather than 8 KB blocks improves storage utilization and
// metadata I/O.
func E3FragmentsVsBlocks() (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "Structural-data footprint for 1000 small files",
		Claim:   "fragments (2KB) for control data waste 4x less space than whole blocks (8KB)",
		Columns: []string{"design", "metadata bytes", "bytes/file", "overhead vs 1KB file"},
	}
	const files = 1000
	const fileSize = 1024
	// RHODOS: one 2 KB fragment per FIT.
	fitBytes := files * fileservice.FragmentSize
	// Block-metadata design: one 8 KB block per inode/FIT equivalent.
	blockBytes := files * fileservice.BlockSize
	t.AddRow("fragment FIT (RHODOS)", fitBytes, fileservice.FragmentSize,
		fmt.Sprintf("%.0f%%", 100*float64(fileservice.FragmentSize)/fileSize))
	t.AddRow("block metadata (8KB)", blockBytes, fileservice.BlockSize,
		fmt.Sprintf("%.0f%%", 100*float64(fileservice.BlockSize)/fileSize))

	// And measured end-to-end: create the files, count metadata bytes
	// actually written to the main disk.
	c, err := core.New(core.Config{Geometry: bigGeometry})
	if err != nil {
		return nil, err
	}
	defer func() { _ = c.Close() }()
	before := c.Metrics.Get(metrics.DiskBytesWrite)
	for i := 0; i < files; i++ {
		id, err := c.Files.Create(fit.Attributes{})
		if err != nil {
			return nil, err
		}
		if _, err := c.Files.WriteAt(id, 0, make([]byte, fileSize)); err != nil {
			return nil, err
		}
	}
	written := c.Metrics.Get(metrics.DiskBytesWrite) - before
	t.AddRow("measured total write I/O", written, written/files, "-")
	t.Notes = append(t.Notes,
		"a FIT occupies one fragment; the 4 KB saved per file is the paper's utilization argument")
	return t, nil
}

// E4FreeSpaceTable reproduces §4: the 64x64 contiguous-run table answers
// allocation queries quickly, versus scanning the bitmap first-fit.
func E4FreeSpaceTable() (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "Allocation cost on a fragmented 128 MB disk",
		Claim:   "the run table answers contiguous-run queries without scanning the bitmap",
		Columns: []string{"allocator", "allocations", "bitmap words scanned", "words/alloc", "table hits"},
	}
	const capacity = 64 * 1024 // fragments = 128 MB
	for _, mode := range []string{"run-table", "first-fit"} {
		m, err := freespace.NewMap(capacity)
		if err != nil {
			return nil, err
		}
		// Fragment the disk: allocate everything, then free every third
		// small run.
		if _, err := m.Allocate(capacity); err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(7))
		for f := 0; f+8 < capacity; f += 24 {
			if err := m.Free(f, 4+rng.Intn(4)); err != nil {
				return nil, err
			}
		}
		base := m.Stats()
		const allocs = 2000
		done := 0
		for i := 0; i < allocs; i++ {
			var err error
			if mode == "run-table" {
				_, err = m.Allocate(4)
			} else {
				_, err = m.AllocateFirstFit(4)
			}
			if err != nil {
				break
			}
			done++
		}
		st := m.Stats()
		scanned := st.WordsScanned - base.WordsScanned
		perAlloc := float64(scanned) / float64(max(done, 1))
		t.AddRow(mode, done, scanned, perAlloc, st.TableHits-base.TableHits)
	}
	t.Notes = append(t.Notes, "first-fit rescans the bitmap head on every allocation; the table amortizes one scan across 64 cached runs per row")
	return t, nil
}

// E5TrackReadahead reproduces §4: the disk service fetches the fragments a
// request needs and caches the rest of the track.
func E5TrackReadahead() (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "Fragment reads with and without track read-ahead",
		Claim:   "caching the rest of the track satisfies subsequent same-track requests",
		Columns: []string{"pattern", "read-ahead", "disk refs", "track-cache hit rate", "sim time"},
	}
	for _, pattern := range []string{"sequential", "random"} {
		for _, readAhead := range []bool{true, false} {
			refs, hitRate, sim, err := e5Measure(pattern, readAhead)
			if err != nil {
				return nil, err
			}
			t.AddRow(pattern, onOff(readAhead), refs, fmt.Sprintf("%.0f%%", hitRate*100), sim)
		}
	}
	t.Notes = append(t.Notes, "sequential fragment reads collapse to one reference per track with read-ahead")
	return t, nil
}

func e5Measure(pattern string, readAhead bool) (int64, float64, string, error) {
	met := metrics.NewSet()
	c, err := core.New(core.Config{Metrics: met, DisableReadAhead: !readAhead})
	if err != nil {
		return 0, 0, "", err
	}
	defer func() { _ = c.Close() }()
	srv := c.DiskServer(0)
	// 512 fragments of raw data.
	const frags = 512
	addr, err := srv.AllocateFragments(frags)
	if err != nil {
		return 0, 0, "", err
	}
	if err := srv.Put(context.Background(), addr, make([]byte, frags*fileservice.FragmentSize), diskservice.PutOptions{}); err != nil {
		return 0, 0, "", err
	}
	srv.InvalidateCache()
	before := met.Snapshot()
	simBefore := met.SimTime()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < frags; i++ {
		f := i
		if pattern == "random" {
			f = rng.Intn(frags)
		}
		if _, err := srv.Get(context.Background(), addr+f, 1, diskservice.GetOptions{}); err != nil {
			return 0, 0, "", err
		}
	}
	d := met.Diff(before)
	hits := d[metrics.TrackCacheHit]
	misses := d[metrics.TrackCacheMiss]
	return d[metrics.DiskReferences], metrics.HitRate(hits, misses),
		fmtDuration(met.SimTime() - simBefore), nil
}

func fmtSize(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
