// Benchmarks regenerating every table and figure of the reproduction — one
// benchmark per experiment in DESIGN.md's index. Run:
//
//	go test -bench=. -benchmem
//
// Each benchmark executes its experiment b.N times and reports the
// experiment's headline quantity as a custom metric; the full tables are
// printed by cmd/rhodos-bench.
package repro_test

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// runExperiment runs one experiment per iteration and returns the last
// result table.
func runExperiment(b *testing.B, run func() (*experiments.Table, error)) *experiments.Table {
	b.Helper()
	var tbl *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = run()
		if err != nil {
			b.Fatal(err)
		}
	}
	return tbl
}

// metric parses a numeric cell for ReportMetric.
func metric(tbl *experiments.Table, row, col int) float64 {
	v, err := strconv.ParseFloat(strings.TrimSpace(tbl.Rows[row][col]), 64)
	if err != nil {
		return -1
	}
	return v
}

// BenchmarkT1LockMatrix regenerates the paper's Table 1.
func BenchmarkT1LockMatrix(b *testing.B) {
	runExperiment(b, experiments.T1LockMatrix)
}

// BenchmarkE1DiskReferences: disk references vs file size (§5, §7).
func BenchmarkE1DiskReferences(b *testing.B) {
	tbl := runExperiment(b, experiments.E1DiskReferences)
	b.ReportMetric(metric(tbl, 3, 1), "refs/512KB-file")
	b.ReportMetric(metric(tbl, 3, 2), "unixfs-refs/512KB-file")
}

// BenchmarkE2ContiguousTransfer: one disk operation per contiguous run (§4).
func BenchmarkE2ContiguousTransfer(b *testing.B) {
	tbl := runExperiment(b, experiments.E2ContiguousTransfer)
	b.ReportMetric(metric(tbl, 3, 3), "x-speedup/64-blocks")
}

// BenchmarkE3FragmentsVsBlocks: fragments for structural data (§4, §7).
func BenchmarkE3FragmentsVsBlocks(b *testing.B) {
	tbl := runExperiment(b, experiments.E3FragmentsVsBlocks)
	b.ReportMetric(metric(tbl, 0, 2), "metadata-B/file")
}

// BenchmarkE4FreeSpaceTable: the 64x64 run table vs first-fit (§4).
func BenchmarkE4FreeSpaceTable(b *testing.B) {
	tbl := runExperiment(b, experiments.E4FreeSpaceTable)
	b.ReportMetric(metric(tbl, 0, 3), "words/alloc-table")
	b.ReportMetric(metric(tbl, 1, 3), "words/alloc-firstfit")
}

// BenchmarkE5TrackReadahead: track caching (§4).
func BenchmarkE5TrackReadahead(b *testing.B) {
	tbl := runExperiment(b, experiments.E5TrackReadahead)
	b.ReportMetric(metric(tbl, 0, 2), "refs-seq-readahead")
	b.ReportMetric(metric(tbl, 1, 2), "refs-seq-noreadahead")
}

// BenchmarkE6CacheLevels: caching at every level (§1, §2.2, §5).
func BenchmarkE6CacheLevels(b *testing.B) {
	tbl := runExperiment(b, experiments.E6CacheLevels)
	b.ReportMetric(metric(tbl, 0, 1), "refs-all-caches")
	b.ReportMetric(metric(tbl, 4, 1), "refs-bullet")
}

// BenchmarkE7LockGranularity: record/page/file locking (§6.1).
func BenchmarkE7LockGranularity(b *testing.B) {
	tbl := runExperiment(b, experiments.E7LockGranularity)
	// Row 2: record/16 workers; row 8: file/16 workers.
	b.ReportMetric(metric(tbl, 2, 2), "committed-record-16w")
	b.ReportMetric(metric(tbl, 8, 2), "committed-file-16w")
}

// BenchmarkE8WalVsShadow: commit techniques (§6.7).
func BenchmarkE8WalVsShadow(b *testing.B) {
	tbl := runExperiment(b, experiments.E8WalVsShadow)
	b.ReportMetric(metric(tbl, 0, 1), "extents-after-wal")
	b.ReportMetric(metric(tbl, 1, 1), "extents-after-shadow")
}

// BenchmarkE9DeadlockTimeout: LT-timeout resolution (§6.4).
func BenchmarkE9DeadlockTimeout(b *testing.B) {
	tbl := runExperiment(b, experiments.E9DeadlockTimeout)
	b.ReportMetric(metric(tbl, 0, 3), "timeouts-20ms-2pairs")
}

// BenchmarkE10CrashRecovery: stable storage + intentions list (§6.6).
func BenchmarkE10CrashRecovery(b *testing.B) {
	tbl := runExperiment(b, experiments.E10CrashRecovery)
	b.ReportMetric(metric(tbl, 1, 2), "txns-redone")
}

// BenchmarkE11FitPlacement: dynamic FIT creation (§5, §7).
func BenchmarkE11FitPlacement(b *testing.B) {
	tbl := runExperiment(b, experiments.E11FitPlacement)
	b.ReportMetric(metric(tbl, 0, 1), "fit-gap-frags")
}

// BenchmarkE12SplitLockTables: one table per level (§6.5).
func BenchmarkE12SplitLockTables(b *testing.B) {
	tbl := runExperiment(b, experiments.E12SplitLockTables)
	b.ReportMetric(metric(tbl, 0, 4), "records/search-split")
	b.ReportMetric(metric(tbl, 1, 4), "records/search-combined")
}

// BenchmarkE13Idempotency: idempotent message semantics (§3).
func BenchmarkE13Idempotency(b *testing.B) {
	tbl := runExperiment(b, experiments.E13Idempotency)
	b.ReportMetric(metric(tbl, 1, 6), "double-effects-cached")
	b.ReportMetric(metric(tbl, 2, 6), "double-effects-ablation")
}

// BenchmarkE14Striping: files across disks (§7).
func BenchmarkE14Striping(b *testing.B) {
	tbl := runExperiment(b, experiments.E14Striping)
	b.ReportMetric(metric(tbl, 3, 4), "speedup-8-disks")
}

// BenchmarkE15Replication: the replication service (Fig. 1, §2.1).
func BenchmarkE15Replication(b *testing.B) {
	tbl := runExperiment(b, experiments.E15Replication)
	b.ReportMetric(metric(tbl, 0, 4), "stale-pairs-2r1f")
}

// BenchmarkE16ParallelThroughput: wall-clock scaling of the parallel I/O path.
func BenchmarkE16ParallelThroughput(b *testing.B) {
	tbl := runExperiment(b, experiments.E16ParallelThroughput)
	// Row 3: read mix on 8 disks; row 7: write mix on 8 disks.
	b.ReportMetric(metric(tbl, 3, 7), "x-read-speedup-8-disks")
	b.ReportMetric(metric(tbl, 7, 7), "x-write-speedup-8-disks")
}

// BenchmarkE17Parity: single-failure tolerance at (K+1)/K overhead (§2.1, §7).
func BenchmarkE17Parity(b *testing.B) {
	tbl := runExperiment(b, experiments.E17Parity)
	// Overhead cells render as "1.25x"; strip the suffix. Row 1: 5 disks.
	ov, err := strconv.ParseFloat(strings.TrimSuffix(tbl.Rows[1][1], "x"), 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(ov, "x-overhead-5-disks")
	b.ReportMetric(metric(tbl, 1, 8), "stripes-rebuilt")
}

// BenchmarkE18Torture: crash-recovery torture across every registered fault
// point (§2.1, §6.6, §6.7).
func BenchmarkE18Torture(b *testing.B) {
	tbl := runExperiment(b, experiments.E18Torture)
	held := 0
	for _, row := range tbl.Rows {
		if row[len(row)-1] == "all hold" {
			held++
		}
	}
	if held != len(tbl.Rows) {
		b.Fatalf("%d/%d scenarios violated recovery invariants", len(tbl.Rows)-held, len(tbl.Rows))
	}
	b.ReportMetric(float64(held), "scenarios-recovered")
}

// BenchmarkE19GroupCommit: commit throughput with batched WAL syncs vs one
// barrier per commit (§6.6's stable-storage barrier, amortized).
func BenchmarkE19GroupCommit(b *testing.B) {
	tbl := runExperiment(b, experiments.E19GroupCommit)
	// Rows pair solo/group per worker count: rows 6,7 are solo/group at 8
	// workers. Column 7 is the speedup over solo, column 4 commits/sync.
	b.ReportMetric(metric(tbl, 7, 7), "x-speedup-8-workers")
	b.ReportMetric(metric(tbl, 7, 4), "commits/sync-8-workers")
}

// BenchmarkE20LoadScaling: closed-loop ops/sec of the multiplexed transport
// vs the one-call-per-connection baseline under concurrent client agents.
func BenchmarkE20LoadScaling(b *testing.B) {
	tbl := runExperiment(b, experiments.E20LoadScaling)
	// Rows alternate serial/multiplexed per client count: rows 4,5 are the
	// pair at 64 clients. Column 5 is ops/sec.
	serial, mux := metric(tbl, 4, 5), metric(tbl, 5, 5)
	b.ReportMetric(mux, "mux-ops/sec-64-clients")
	if serial > 0 {
		b.ReportMetric(mux/serial, "x-vs-serial-64-clients")
	}
}

// BenchmarkE21ScaleOut: aggregate closed-loop ops/sec as the cluster grows
// from one shard server to four under a fixed client population.
func BenchmarkE21ScaleOut(b *testing.B) {
	tbl := runExperiment(b, experiments.E21ScaleOut)
	// Rows 0-3 are the closed-loop scaling cells at 1/2/4/8 servers; column
	// 6 is ops/sec.
	one, four := metric(tbl, 0, 6), metric(tbl, 2, 6)
	b.ReportMetric(four, "ops/sec-4-servers")
	if one > 0 {
		b.ReportMetric(four/one, "x-vs-1-server")
	}
}
