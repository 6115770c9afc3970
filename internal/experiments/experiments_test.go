package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/ccache"
	"repro/internal/obs"
	"repro/internal/stable"
	"repro/internal/txn"
)

// cell parses a table cell as an integer.
func cell(t *testing.T, tbl *Table, row, col int) int {
	t.Helper()
	v, err := strconv.Atoi(strings.TrimSpace(tbl.Rows[row][col]))
	if err != nil {
		t.Fatalf("%s row %d col %d = %q: %v", tbl.ID, row, col, tbl.Rows[row][col], err)
	}
	return v
}

func cellFloat(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(tbl.Rows[row][col]), 64)
	if err != nil {
		t.Fatalf("%s row %d col %d = %q: %v", tbl.ID, row, col, tbl.Rows[row][col], err)
	}
	return v
}

func TestAllRunnersListed(t *testing.T) {
	runners := All()
	if len(runners) != 24 {
		t.Fatalf("All() = %d runners, want 24 (T1 + E1..E23)", len(runners))
	}
	seen := map[string]bool{}
	for _, r := range runners {
		if seen[r.ID] {
			t.Fatalf("duplicate runner %s", r.ID)
		}
		seen[r.ID] = true
		if r.Run == nil {
			t.Fatalf("%s has no Run", r.ID)
		}
	}
}

func TestT1MatchesPaperTable(t *testing.T) {
	tbl, err := T1LockMatrix()
	if err != nil {
		t.Fatal(err)
	}
	// Rows: none, read-only, Iread, Iwrite.
	want := [][]string{
		{"none", "ok", "ok", "ok"},
		{"read-only", "ok", "ok", "wait"},
		{"Iread", "wait", "wait", "wait"},
		{"Iwrite", "wait", "wait", "wait"},
	}
	if len(tbl.Rows) != len(want) {
		t.Fatalf("T1 rows = %d", len(tbl.Rows))
	}
	for i, w := range want {
		for j, cell := range w {
			if tbl.Rows[i][j] != cell {
				t.Fatalf("T1[%d][%d] = %q, want %q", i, j, tbl.Rows[i][j], cell)
			}
		}
	}
}

func TestE1Shape(t *testing.T) {
	tbl, err := E1DiskReferences()
	if err != nil {
		t.Fatal(err)
	}
	tbl.Render(testWriter{t})
	// Files <= 512KB (rows 0..3): RHODOS refs <= 2.
	for row := 0; row <= 3; row++ {
		if refs := cell(t, tbl, row, 1); refs > 2 {
			t.Errorf("E1 %s: RHODOS refs = %d, want <= 2", tbl.Rows[row][0], refs)
		}
	}
	// At every size, RHODOS needs fewer references than unixfs.
	for row := range tbl.Rows {
		if cell(t, tbl, row, 1) >= cell(t, tbl, row, 2) {
			t.Errorf("E1 %s: RHODOS %d >= unixfs %d", tbl.Rows[row][0],
				cell(t, tbl, row, 1), cell(t, tbl, row, 2))
		}
	}
}

func TestE2Shape(t *testing.T) {
	tbl, err := E2ContiguousTransfer()
	if err != nil {
		t.Fatal(err)
	}
	tbl.Render(testWriter{t})
	for row := range tbl.Rows {
		blocks := cell(t, tbl, row, 0)
		if with := cell(t, tbl, row, 1); with != 1 {
			t.Errorf("E2 %d blocks: with-count ops = %d, want 1", blocks, with)
		}
		if per := cell(t, tbl, row, 2); per != blocks {
			t.Errorf("E2 %d blocks: per-block ops = %d, want %d", blocks, per, blocks)
		}
	}
}

func TestE3Shape(t *testing.T) {
	tbl, err := E3FragmentsVsBlocks()
	if err != nil {
		t.Fatal(err)
	}
	tbl.Render(testWriter{t})
	frag := cell(t, tbl, 0, 1)
	block := cell(t, tbl, 1, 1)
	if block != 4*frag {
		t.Errorf("E3: block metadata %d, fragment %d; want exactly 4x", block, frag)
	}
}

func TestE4Shape(t *testing.T) {
	tbl, err := E4FreeSpaceTable()
	if err != nil {
		t.Fatal(err)
	}
	tbl.Render(testWriter{t})
	tableWords := cellFloat(t, tbl, 0, 3)
	ffWords := cellFloat(t, tbl, 1, 3)
	if tableWords >= ffWords {
		t.Errorf("E4: run table scanned %.1f words/alloc, first-fit %.1f; table must scan fewer",
			tableWords, ffWords)
	}
}

func TestE5Shape(t *testing.T) {
	tbl, err := E5TrackReadahead()
	if err != nil {
		t.Fatal(err)
	}
	tbl.Render(testWriter{t})
	// Row 0: sequential + readahead on; row 1: sequential + off.
	seqOn := cell(t, tbl, 0, 2)
	seqOff := cell(t, tbl, 1, 2)
	if seqOn*4 > seqOff {
		t.Errorf("E5 sequential: on=%d off=%d; read-ahead should cut refs by ~track size", seqOn, seqOff)
	}
}

func TestE6Shape(t *testing.T) {
	tbl, err := E6CacheLevels()
	if err != nil {
		t.Fatal(err)
	}
	tbl.Render(testWriter{t})
	full := cell(t, tbl, 0, 1)    // all caches
	none := cell(t, tbl, 3, 1)    // no caches
	bulletN := cell(t, tbl, 4, 1) // bullet
	if full >= none {
		t.Errorf("E6: full caching %d refs >= no caching %d", full, none)
	}
	if full >= bulletN {
		t.Errorf("E6: full caching %d refs >= bullet %d", full, bulletN)
	}
	// The machine's cache evicts in map order, which must never reach a
	// virtual-time table: every cell the same on every run.
	for run := 2; run <= 5; run++ {
		again, err := E6CacheLevels()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again.Rows, tbl.Rows) {
			t.Fatalf("E6 run %d differs from run 1:\n%v\n%v", run, again.Rows, tbl.Rows)
		}
	}
}

func TestE8Shape(t *testing.T) {
	tbl, err := E8WalVsShadow()
	if err != nil {
		t.Fatal(err)
	}
	tbl.Render(testWriter{t})
	walExt := cell(t, tbl, 0, 1)
	shadowExt := cell(t, tbl, 1, 1)
	ruleExt := cell(t, tbl, 2, 1)
	if walExt != 1 {
		t.Errorf("E8: WAL left %d extents, want 1 (contiguity preserved)", walExt)
	}
	if shadowExt <= walExt {
		t.Errorf("E8: shadow %d extents <= WAL %d (must fragment)", shadowExt, walExt)
	}
	if ruleExt != 1 {
		t.Errorf("E8: paper rule left %d extents, want 1", ruleExt)
	}
	// Shadow's re-read costs more references.
	if cell(t, tbl, 1, 4) <= cell(t, tbl, 0, 4) {
		t.Errorf("E8: shadow re-read refs %d <= WAL %d", cell(t, tbl, 1, 4), cell(t, tbl, 0, 4))
	}
}

func TestE10Shape(t *testing.T) {
	tbl, err := E10CrashRecovery()
	if err != nil {
		t.Fatal(err)
	}
	tbl.Render(testWriter{t})
	for row := range tbl.Rows {
		committed := tbl.Rows[row][0]
		verified := tbl.Rows[row][3]
		if verified != committed+"/"+committed {
			t.Errorf("E10 row %d: verified %s of %s committed", row, verified, committed)
		}
		if leaked := cell(t, tbl, row, 4); leaked != 0 {
			t.Errorf("E10 row %d: %d tentative transactions leaked", row, leaked)
		}
	}
}

func TestE11Shape(t *testing.T) {
	tbl, err := E11FitPlacement()
	if err != nil {
		t.Fatal(err)
	}
	tbl.Render(testWriter{t})
	rhodosGap := cellFloat(t, tbl, 0, 1)
	if rhodosGap != 0 {
		t.Errorf("E11: mean FIT->data gap = %.2f, want 0 (adjacency)", rhodosGap)
	}
	if disp := cellFloat(t, tbl, 0, 3); disp == 0 {
		t.Errorf("E11: FIT dispersion 0; FITs must spread over the disk")
	}
	if disp := cellFloat(t, tbl, 1, 3); disp != 0 {
		t.Errorf("E11: fixed inode area dispersion = %.2f, want 0", disp)
	}
}

func TestE12Shape(t *testing.T) {
	tbl, err := E12SplitLockTables()
	if err != nil {
		t.Fatal(err)
	}
	tbl.Render(testWriter{t})
	split := cellFloat(t, tbl, 0, 4)
	combined := cellFloat(t, tbl, 1, 4)
	if split >= combined {
		t.Errorf("E12: split %.1f records/search >= combined %.1f", split, combined)
	}
}

func TestE13Shape(t *testing.T) {
	tbl, err := E13Idempotency()
	if err != nil {
		t.Fatal(err)
	}
	tbl.Render(testWriter{t})
	// Rows 0,1 (cache on): zero double effects.
	for row := 0; row <= 1; row++ {
		if d := cell(t, tbl, row, 6); d != 0 {
			t.Errorf("E13 row %d: %d double effects with cache on", row, d)
		}
	}
	// Row 2 (ablation): double effects appear.
	if d := cell(t, tbl, 2, 6); d <= 0 {
		t.Errorf("E13 ablation: %d double effects, want > 0", d)
	}
}

func TestE14Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("E14 moves 16MB x 4 configurations")
	}
	tbl, err := E14Striping()
	if err != nil {
		t.Fatal(err)
	}
	tbl.Render(testWriter{t})
	speedup8 := cellFloat(t, tbl, 3, 4)
	if speedup8 < 2 {
		t.Errorf("E14: 8-disk speedup = %.2f, want >= 2", speedup8)
	}
}

func TestE15Shape(t *testing.T) {
	tbl, err := E15Replication()
	if err != nil {
		t.Fatal(err)
	}
	tbl.Render(testWriter{t})
	for row := range tbl.Rows {
		if tbl.Rows[row][2] != "10/10" {
			t.Errorf("E15 row %d: reads during outage = %s, want 10/10", row, tbl.Rows[row][2])
		}
		if tbl.Rows[row][3] != "10/10" {
			t.Errorf("E15 row %d: writes during outage = %s, want 10/10", row, tbl.Rows[row][3])
		}
		if tbl.Rows[row][5] != "true" {
			t.Errorf("E15 row %d: resync failed", row)
		}
	}
}

func TestE17Shape(t *testing.T) {
	tbl, err := E17Parity()
	if err != nil {
		t.Fatal(err)
	}
	tbl.Render(testWriter{t})
	wantOverhead := map[int]float64{0: 1.50, 1: 1.25} // 3 disks (K=2), 5 disks (K=4)
	for row := range tbl.Rows {
		overhead, err := strconv.ParseFloat(strings.TrimSuffix(tbl.Rows[row][1], "x"), 64)
		if err != nil {
			t.Fatalf("E17 row %d overhead %q: %v", row, tbl.Rows[row][1], err)
		}
		if overhead != wantOverhead[row] {
			t.Errorf("E17 row %d: overhead %.2f, want %.2f", row, overhead, wantOverhead[row])
		}
		if overhead >= 2.0 {
			t.Errorf("E17 row %d: parity overhead %.2f not below replication's 2.00x", row, overhead)
		}
		if got := tbl.Rows[row][5]; got != "16/16" {
			t.Errorf("E17 row %d: degraded reads ok = %s, want 16/16", row, got)
		}
		if got := tbl.Rows[row][6]; got != "8/8" {
			t.Errorf("E17 row %d: degraded writes ok = %s, want 8/8", row, got)
		}
		if rebuilt := cell(t, tbl, row, 8); rebuilt <= 0 {
			t.Errorf("E17 row %d: rebuilt %d stripes", row, rebuilt)
		}
		if tbl.Rows[row][9] != "true" {
			t.Errorf("E17 row %d: post-rebuild byte compare or parity check failed", row)
		}
	}
}

func TestE18Shape(t *testing.T) {
	tbl, err := E18Torture()
	if err != nil {
		t.Fatal(err)
	}
	tbl.Render(testWriter{t})
	scs := TortureScenarios()
	if len(tbl.Rows) != len(scs) {
		t.Fatalf("E18 rows = %d, want %d", len(tbl.Rows), len(scs))
	}
	points := map[string]bool{}
	for row := range tbl.Rows {
		points[tbl.Rows[row][0]] = true
		if fired := cell(t, tbl, row, 3); fired < 1 {
			t.Errorf("E18 %s: armed fault never fired", tbl.Rows[row][0])
		}
		if inv := tbl.Rows[row][7]; inv != "all hold" {
			t.Errorf("E18 %s: %s", tbl.Rows[row][0], inv)
		}
		// Every txn recipe runs a traced cluster: the fault observer must have
		// dumped the flight recorder with the interrupted commit in flight.
		recipe := tbl.Rows[row][2]
		if (recipe == "txn-commit" || recipe == "group-commit") && tbl.Rows[row][6] == "-" {
			t.Errorf("E18 %s: no flight-recorder dump captured", tbl.Rows[row][0])
		}
	}
	if len(points) < 10 {
		t.Errorf("E18 exercised %d distinct fault points, want >= 10", len(points))
	}
}

// TestTortureWriteback pins the cache write-back crash contract directly:
// the group leader dies after the shared sync, so the flush's two
// non-adjacent dirty runs must both be durable — and the harness must
// classify them as one unit.
func TestTortureWriteback(t *testing.T) {
	scs := TortureScenarios()
	sc := scs[len(scs)-1]
	if sc.Kind != TortureWriteback {
		t.Fatalf("last scenario kind = %s, want cache-writeback", sc.Kind)
	}
	res, err := RunTorture(sc, 99)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fired < 1 {
		t.Error("armed fault never fired")
	}
	if res.Outcome != "durable" {
		t.Errorf("outcome = %s, want durable (crash is past the sync)", res.Outcome)
	}
	if len(res.Violations) > 0 {
		t.Errorf("violations: %v", res.Violations)
	}
}

// TestTortureReplayable proves the determinism contract for every
// in-process recipe: the same scenario and seed fire the same fault trace
// and reach the same outcome twice.
func TestTortureReplayable(t *testing.T) {
	scs := TortureScenarios()
	picked := []TortureScenario{scs[3]} // torn primary write mid-commit
	for _, kind := range []TortureKind{TortureGroup, TortureWriteback, TortureParity, TortureMedia} {
		i := slices.IndexFunc(scs, func(sc TortureScenario) bool { return sc.Kind == kind })
		picked = append(picked, scs[i])
	}
	for _, sc := range picked {
		a, err := RunTorture(sc, 42)
		if err != nil {
			t.Fatalf("%s %s: %v", sc.Kind, sc.Point, err)
		}
		b, err := RunTorture(sc, 42)
		if err != nil {
			t.Fatalf("%s %s: %v", sc.Kind, sc.Point, err)
		}
		if a.Fired != b.Fired || a.Outcome != b.Outcome || a.Redone != b.Redone ||
			!slices.Equal(a.Violations, b.Violations) {
			t.Errorf("%s %s: replay diverged: %+v vs %+v", sc.Kind, sc.Point, a, b)
		}
		if len(a.Violations) > 0 {
			t.Errorf("%s %s: violations: %v", sc.Kind, sc.Point, a.Violations)
		}
	}
}

// TestTortureVerdictsLive proves the verify steps can fail. Every scenario
// with a durability verdict, run with that verdict inverted, must report a
// violation — a recipe that stopped comparing bytes would not. And settle
// must flag a facility rebooted past a torn mirror write without the first
// reconcile pass.
func TestTortureVerdictsLive(t *testing.T) {
	verdicts := map[TortureKind]bool{TortureTxn: true, TortureGroup: true, TortureKillServer: true, TortureWriteback: true}
	ran := 0
	for i, sc := range TortureScenarios() {
		if !verdicts[sc.Kind] {
			continue
		}
		ran++
		sc.Durable = !sc.Durable
		res, err := RunTorture(sc, 1800+int64(i))
		if err != nil {
			t.Errorf("%s %s inverted: %v", sc.Kind, sc.Point, err)
			continue
		}
		if len(res.Violations) == 0 {
			t.Errorf("%s %s: verdict inverted to durable=%v, outcome %q, yet every invariant held",
				sc.Kind, sc.Point, sc.Durable, res.Outcome)
		}
	}
	if ran != 15 {
		t.Errorf("ran %d scenarios with a durability verdict, want 15 (txn 10, group 2, kill-server 2, write-back 1)", ran)
	}

	sc := TortureScenarios()[5] // torn mirror write at the commit record
	if sc.Point != stable.PtWriteMirror {
		t.Fatalf("scenario 5 is %s, want %s", sc.Point, stable.PtWriteMirror)
	}
	r, err := newWALRig(42, txn.GroupCommitConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.c.Close() }()
	fids, err := r.seed(make([]byte, 20000))
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := r.strike(sc, func() error {
		_, err := r.commit(2, fids[0], ccache.Run{Data: bytes.Repeat([]byte{7}, 20000)})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.c.Crash(); err != nil {
		t.Fatal(err)
	}
	if res.Redone, err = r.c.Recover(); err != nil {
		t.Fatal(err)
	}
	if res, err = r.settle(res); err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Error("settle found nothing to flag after a torn mirror write was never reconciled")
	}
	t.Logf("settle flagged: %v", res.Violations)
}

func TestE20Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("E20 measures wall-clock throughput over real TCP")
	}
	// One small cell per transport, not the full matrix. With 16 clients at
	// 8 per connection and a 1 ms injected service time, the serial
	// transport is capped near 2×(1/1ms) ops/sec while the multiplexed one
	// overlaps all 16 — the gap is structural (~8x on an unloaded host, and
	// still ~2.8x on this CPU-starved container since the serial cap is
	// sleep-bound while the mux side is compute-bound). The threshold is
	// far below both; one clean attempt out of two is accepted.
	const clients, ops = 16, 25
	var ratio float64
	for attempt := 0; attempt < 2; attempt++ {
		serial, err := loadRun(true, clients, e20AgentsPerConn, ops, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		mux, err := loadRun(false, clients, e20AgentsPerConn, ops, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if serial.Ops != clients*ops || mux.Ops != clients*ops {
			t.Fatalf("ops = %d serial, %d mux, want %d", serial.Ops, mux.Ops, clients*ops)
		}
		if mux.Latency.Count() != int64(mux.Ops) {
			t.Fatalf("latency samples = %d, want %d", mux.Latency.Count(), mux.Ops)
		}
		ratio = mux.OpsPerSec() / serial.OpsPerSec()
		t.Logf("E20 attempt %d: serial %.0f ops/sec, mux %.0f ops/sec, ratio %.2f",
			attempt, serial.OpsPerSec(), mux.OpsPerSec(), ratio)
		if ratio >= 2 {
			break
		}
	}
	if ratio < 2 {
		t.Fatalf("multiplexed transport only %.2fx the serial baseline, want >= 2x", ratio)
	}
}

func TestE21Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("E21 boots a multi-server TCP cluster and measures wall-clock throughput")
	}
	if raceEnabled {
		t.Skip("the race detector's serialization inverts the scaling shape")
	}
	// Scale-out: with a 1 ms injected service time per request and 8 workers
	// per server, one server caps near 8k ops/sec while four servers offer
	// 4x the capacity to the same 24-client population. The measured gain is
	// well above 2x on an unloaded host; the threshold sits far below that,
	// and one clean attempt out of two is accepted.
	var ratio float64
	for attempt := 0; attempt < 2; attempt++ {
		one, err := ScaleRun(1, e21Clients, 50, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		four, err := ScaleRun(4, e21Clients, 50, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if one.Ops != e21Clients*50 || four.Ops != e21Clients*50 {
			t.Fatalf("ops = %d at 1 server, %d at 4, want %d", one.Ops, four.Ops, e21Clients*50)
		}
		if four.Latency.Count() != int64(four.Ops) {
			t.Fatalf("latency samples = %d, want %d", four.Latency.Count(), four.Ops)
		}
		ratio = four.OpsPerSec() / one.OpsPerSec()
		t.Logf("E21 attempt %d: 1 server %.0f ops/sec, 4 servers %.0f ops/sec, ratio %.2f",
			attempt, one.OpsPerSec(), four.OpsPerSec(), ratio)
		if ratio >= 1.5 {
			break
		}
	}
	if ratio < 1.5 {
		t.Fatalf("4 servers only %.2fx the 1-server baseline, want >= 1.5x", ratio)
	}
}

func TestE21KillServer(t *testing.T) {
	if testing.Short() {
		t.Skip("E21 kill cell runs three wall-clock phases over TCP")
	}
	res, err := KillServerRun(250 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 3 {
		t.Fatalf("phases = %d, want 3", len(res.Phases))
	}
	before, down, recovered := res.Phases[0], res.Phases[1], res.Phases[2]
	if before.SurvivorErr != 0 || before.VictimErr != 0 {
		t.Fatalf("errors before the kill: survivor %d, victim %d", before.SurvivorErr, before.VictimErr)
	}
	if before.VictimOK == 0 || before.SurvivorOK == 0 {
		t.Fatalf("no throughput before the kill: survivor %d, victim %d", before.SurvivorOK, before.VictimOK)
	}
	// While the victim is down its clients only fail, and the survivors keep
	// serving without errors.
	if down.SurvivorOK == 0 || down.SurvivorErr != 0 {
		t.Fatalf("survivors during outage: %d ok, %d err", down.SurvivorOK, down.SurvivorErr)
	}
	if down.VictimOK != 0 || down.VictimErr == 0 {
		t.Fatalf("victim clients during outage: %d ok, %d err, want only errors", down.VictimOK, down.VictimErr)
	}
	if !res.LeaseBroken {
		t.Fatal("victim shard did not break the unrenewed lease during the outage")
	}
	// After the restart the victim's clients fail over (their transports
	// re-dial) and the freed lock is winnable.
	if recovered.VictimOK == 0 {
		t.Fatalf("victim clients did not recover: %d ok, %d err", recovered.VictimOK, recovered.VictimErr)
	}
	if !res.CompetitorAcquired {
		t.Fatal("competitor could not acquire the lock freed by the broken lease")
	}
}

func TestE21Failover(t *testing.T) {
	if testing.Short() {
		t.Skip("E21 failover cell runs three wall-clock phases over TCP")
	}
	res, err := FailoverRun(400 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 3 {
		t.Fatalf("phases = %d, want 3", len(res.Phases))
	}
	if !res.Promoted {
		t.Fatal("backup did not promote itself during the outage")
	}
	before, during, after := res.Phases[0], res.Phases[1], res.Phases[2]
	if before.VictimErr != 0 || before.SurvivorErr != 0 {
		t.Fatalf("errors before the kill: victim %d, survivor %d", before.VictimErr, before.SurvivorErr)
	}
	if before.VictimOK == 0 || before.SurvivorOK == 0 {
		t.Fatalf("no throughput before the kill: victim %d, survivor %d", before.VictimOK, before.SurvivorOK)
	}
	// The zero-unavailability claim: the victim shard's clients keep
	// completing operations through the outage — retries span the promotion
	// window — and the survivors never notice.
	for _, ph := range []AvailabilityPhase{during, after} {
		if ph.VictimOK == 0 {
			t.Errorf("%s phase: victim clients completed nothing (%d errors)", ph.Name, ph.VictimErr)
		}
		if ph.SurvivorErr != 0 {
			t.Errorf("%s phase: survivors saw %d errors", ph.Name, ph.SurvivorErr)
		}
	}
	// Once the backup has taken over, the victim shard serves cleanly again.
	if after.VictimErr != 0 {
		t.Errorf("after phase: victim clients still failing: %d ok, %d err", after.VictimOK, after.VictimErr)
	}
	t.Logf("failover: victim before %d ok, during %d ok / %d err (p99 %v), after %d ok (p99 %v)",
		before.VictimOK, during.VictimOK, during.VictimErr, during.Victim.Quantile(0.99),
		after.VictimOK, after.Victim.Quantile(0.99))
}

func TestE22Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("E22 runs wall-clock failover phases over TCP")
	}
	tbl, err := E22FleetObservability()
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 is the traced-write cell; a second traced-write row only appears
	// when stitching failed or spans went missing.
	for _, row := range tbl.Rows {
		if strings.TrimSpace(row[0]) == "traced-write" && strings.TrimSpace(row[2]) != "0" {
			t.Fatalf("traced-write cell reported an error: %v", row)
		}
	}
	want := "client, router, primary-serve, group-commit, ship, backup-serve, backup-apply"
	if got := tbl.Rows[0][4]; !strings.Contains(got, want) {
		t.Fatalf("stitched tree missing spans: %q", got)
	}
	// The promotion row must carry a positive window read from the event log.
	var promRow []string
	for _, row := range tbl.Rows {
		if strings.TrimSpace(row[0]) == "promotion" {
			promRow = row
		}
	}
	if promRow == nil {
		t.Fatal("no promotion row")
	}
	if ok := cell(t, tbl, len(tbl.Rows)-1, 1); ok != 1 {
		t.Fatalf("promotion window not measured: %v", promRow)
	}
	if tbl.Profile == nil {
		t.Fatal("E22 table has no merged profile")
	}
	var lag bool
	for _, v := range tbl.Profile.Values {
		if v.Name == "cluster.repl.lag_ns" && v.Count > 0 {
			lag = true
		}
	}
	if !lag {
		t.Error("merged profile lost the replication-lag histogram")
	}
}

func TestE16Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("E16 measures wall-clock time with spindle occupancy enabled")
	}
	// Only the read endpoints: the full table is cmd/rhodos-bench territory;
	// here we assert the scaling claim with real elapsed time, so keep the
	// runtime small and the threshold conservative. Wall-clock scaling on a
	// loaded single-CPU host is noisy (a neighbour stealing the CPU inflates
	// the 8-disk run far more than the sleep-dominated 1-disk run), so one
	// clean attempt out of two is accepted.
	rec := obs.New()
	var speedup float64
	for attempt := 0; attempt < 2; attempt++ {
		one, err := e16Run("read", 1, rec)
		if err != nil {
			t.Fatal(err)
		}
		eight, err := e16Run("read", 8, rec)
		if err != nil {
			t.Fatal(err)
		}
		speedup = (float64(eight.ops) / eight.wall.Seconds()) / (float64(one.ops) / one.wall.Seconds())
		t.Logf("E16 attempt %d: 1 disk %d ops in %v; 8 disks %d ops in %v; speedup %.2f",
			attempt, one.ops, one.wall, eight.ops, eight.wall, speedup)
		if speedup >= 3 || raceEnabled {
			break
		}
	}
	// The agent-driven run must populate the whole layering in the profile.
	for _, layer := range []obs.Layer{obs.LayerAgent, obs.LayerFileService, obs.LayerDiskService, obs.LayerDevice} {
		if rec.LayerWall(layer).Count() == 0 {
			t.Errorf("E16: layer %s observed no operations", layer)
		}
	}
	// Under the race detector the CPU-bound share swamps the spindle sleeps,
	// so only the coverage above is asserted there.
	if speedup < 3 && !raceEnabled {
		t.Errorf("E16: 8-disk wall-clock speedup = %.2f, want >= 3", speedup)
	}
}

// The heavier concurrency experiments get smoke coverage: they must complete
// and produce well-formed tables.
func TestE7Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("E7 runs 9 concurrency configurations")
	}
	tbl, err := E7LockGranularity()
	if err != nil {
		t.Fatal(err)
	}
	tbl.Render(testWriter{t})
	if len(tbl.Rows) != 9 {
		t.Fatalf("E7 rows = %d, want 9", len(tbl.Rows))
	}
	for row := range tbl.Rows {
		if c := cell(t, tbl, row, 2); c <= 0 {
			t.Errorf("E7 row %d committed %d", row, c)
		}
	}
	// The concurrency shape (§6.1): at 16 workers, record-level commits
	// strictly more than file-level, which serializes on the single file.
	rec16 := cell(t, tbl, 2, 2)
	file16 := cell(t, tbl, 8, 2)
	if rec16 <= file16 {
		t.Errorf("E7: record@16w committed %d <= file@16w %d", rec16, file16)
	}
}

func TestE9Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("E9 provokes deadlocks with sleeps")
	}
	tbl, err := E9DeadlockTimeout()
	if err != nil {
		t.Fatal(err)
	}
	tbl.Render(testWriter{t})
	for row := range tbl.Rows {
		if tbl.Rows[row][4] != "true" {
			t.Errorf("E9 row %d did not resolve", row)
		}
	}
}

// testWriter adapts t.Log for table rendering.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}

// TestE19Shape asserts the group-commit claim on its extremes: at 8
// concurrent committers, group mode must amortize barriers (far fewer syncs
// than commits) and beat solo-mode throughput. Wall-clock scaling on a
// loaded host is noisy, so one clean attempt out of two is accepted and the
// threshold is conservative — the typical gap is much larger.
func TestE19Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("E19 measures wall-clock time with log spindle occupancy enabled")
	}
	rec := obs.New()
	var speedup float64
	for attempt := 0; attempt < 2; attempt++ {
		solo, err := e19Run(false, 8, rec)
		if err != nil {
			t.Fatal(err)
		}
		group, err := e19Run(true, 8, rec)
		if err != nil {
			t.Fatal(err)
		}
		if group.syncs >= int64(group.commits) {
			t.Fatalf("group mode issued %d syncs for %d commits; batching never happened", group.syncs, group.commits)
		}
		if solo.syncs != int64(solo.commits) {
			t.Fatalf("solo mode issued %d syncs for %d commits; want exactly one barrier each", solo.syncs, solo.commits)
		}
		speedup = (float64(group.commits) / group.wall.Seconds()) / (float64(solo.commits) / solo.wall.Seconds())
		t.Logf("E19 attempt %d: solo %d commits/%d syncs in %v; group %d commits/%d syncs in %v; speedup %.2f",
			attempt, solo.commits, solo.syncs, solo.wall, group.commits, group.syncs, group.wall, speedup)
		if speedup >= 1.5 {
			break
		}
	}
	if speedup < 1.5 {
		t.Errorf("E19: group commit speedup %.2f at 8 workers, want >= 1.5", speedup)
	}
	if h := rec.ValueHist("txn.group.batch_size"); h.Count() == 0 {
		t.Error("E19: no batch sizes recorded in the txn.group.batch_size histogram")
	}
}

// TestE23Shape runs the client-cache experiment end to end and pins its
// load-bearing claims: the cached cell's measured window drives zero read
// RPCs into the disk service, the speedup over uncached is real, and the
// recall storm converges.
func TestE23Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("E23 drives wall-clock load over TCP")
	}
	tbl, err := E23ClientCache()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("E23 rows = %d, want 3", len(tbl.Rows))
	}
	unc, cac, storm := tbl.Rows[0], tbl.Rows[1], tbl.Rows[2]
	if got := strings.TrimSpace(cac[5]); got != "0" {
		t.Fatalf("cached cell reached the disk service: %s read RPCs", got)
	}
	if got := strings.TrimSpace(unc[5]); got == "0" {
		t.Fatal("uncached cell recorded no server reads")
	}
	// The 5x claim holds with wide margin on loopback; assert a conservative
	// floor so a loaded CI machine does not flake the shape test.
	if !strings.Contains(cac[8], "x vs uncached") {
		t.Fatalf("cached row note missing speedup: %q", cac[8])
	}
	var speedup float64
	if _, err := fmt.Sscanf(strings.TrimSpace(cac[8]), "%fx vs uncached", &speedup); err != nil {
		t.Fatalf("parse speedup from %q: %v", cac[8], err)
	}
	if speedup < 2 {
		t.Fatalf("cached speedup %.1fx, want >=2x", speedup)
	}
	if !strings.Contains(storm[8], "converged=true") {
		t.Fatalf("recall storm did not converge: %q", storm[8])
	}
}
