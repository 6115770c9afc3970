package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/intentions"
	"repro/internal/metrics"
	"repro/internal/txn"
)

// E8WalVsShadow reproduces §6.7: the WAL technique preserves the contiguity
// of a file's blocks across commits (at the cost of log volume and an
// in-place copy), while the shadow-page technique avoids the copy but
// destroys contiguity, which later sequential reads pay for.
func E8WalVsShadow() (*Table, error) {
	t := &Table{
		ID:    "E8",
		Title: "50 page-update transactions on a contiguous 32-block file",
		Claim: "WAL keeps the file in 1 extent; shadow paging fragments it and slows later scans",
		Columns: []string{"technique", "extents after", "largest run", "commit log bytes",
			"seq re-read refs", "seq re-read time"},
	}
	for _, mode := range []struct {
		name  string
		force intentions.Technique
	}{
		{"write-ahead log", intentions.WAL},
		{"shadow page", intentions.ShadowPage},
		{"paper rule (contiguity)", 0},
	} {
		res, err := e8Run(mode.force)
		if err != nil {
			return nil, fmt.Errorf("E8 %s: %w", mode.name, err)
		}
		t.AddRow(mode.name, res.extents, res.largest, res.logBytes, res.reReadRefs, res.reReadTime)
	}
	t.Notes = append(t.Notes,
		"the paper's rule behaves like WAL while the file stays contiguous, which it therefore stays",
		"shadow paging shows the §6.7 disadvantage: contiguity destroyed, re-read cost up")
	return t, nil
}

type e8Result struct {
	extents    int
	largest    int
	logBytes   int
	reReadRefs int64
	reReadTime string
}

func e8Run(force intentions.Technique) (e8Result, error) {
	met := metrics.NewSet()
	c, err := core.New(core.Config{
		Metrics: met, ForceTechnique: force, LogFragments: 4096,
	})
	if err != nil {
		return e8Result{}, err
	}
	defer func() { _ = c.Close() }()

	const blocks = 32
	setup, err := c.Txns.Begin(0)
	if err != nil {
		return e8Result{}, err
	}
	fid, err := c.Txns.Create(setup, fit.Attributes{Locking: fit.LockPage})
	if err != nil {
		return e8Result{}, err
	}
	if _, err := c.Txns.PWrite(setup, fid, 0, make([]byte, blocks*fileservice.BlockSize)); err != nil {
		return e8Result{}, err
	}
	if err := c.Txns.End(setup); err != nil {
		return e8Result{}, err
	}

	logBefore := c.Log.AppendedBytes()
	logBytes := 0
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		id, err := c.Txns.Begin(1)
		if err != nil {
			return e8Result{}, err
		}
		if err := c.Txns.Open(id, fid, fit.LockPage); err != nil {
			return e8Result{}, err
		}
		blk := rng.Intn(blocks)
		payload := bytes.Repeat([]byte{byte(i)}, fileservice.BlockSize)
		if _, err := c.Txns.PWrite(id, fid, int64(blk)*fileservice.BlockSize, payload); err != nil {
			return e8Result{}, err
		}
		pre := c.Log.AppendedBytes()
		if pre < logBefore {
			logBefore = 0 // log was truncated mid-run
		}
		if err := c.Txns.End(id); err != nil {
			return e8Result{}, err
		}
		post := c.Log.AppendedBytes()
		if post >= pre {
			logBytes += post - pre
		}
	}
	exts, largest, err := c.Files.ContiguityProfile(fid)
	if err != nil {
		return e8Result{}, err
	}
	// Sequential re-read cost after the churn.
	if err := c.Flush(); err != nil {
		return e8Result{}, err
	}
	c.InvalidateCaches()
	refsBefore := met.Get(metrics.DiskReferences)
	simBefore := met.SimTime()
	if _, err := c.Files.ReadAt(fid, 0, blocks*fileservice.BlockSize); err != nil {
		return e8Result{}, err
	}
	return e8Result{
		extents:    exts,
		largest:    largest,
		logBytes:   logBytes,
		reReadRefs: met.Get(metrics.DiskReferences) - refsBefore,
		reReadTime: fmtDuration(met.SimTime() - simBefore),
	}, nil
}

// E10CrashRecovery reproduces §2.1/§6.6: stable storage plus the intentions
// list make committed transactions recoverable after a crash at any point;
// tentative transactions vanish.
func E10CrashRecovery() (*Table, error) {
	t := &Table{
		ID:    "E10",
		Title: "Crash injection during transaction streams",
		Claim: "committed data always survives; uncommitted data never does",
		Columns: []string{"committed before crash", "in-flight at crash", "redone",
			"committed verified", "tentative leaked", "recovery wall time"},
	}
	for _, commits := range []int{5, 20} {
		row, err := e10Run(commits)
		if err != nil {
			return nil, err
		}
		t.AddRow(row.committed, row.inFlight, row.redone, row.verified, row.leaked, row.wall)
	}
	t.Notes = append(t.Notes, "crashes are injected after the commit point but before application (worst case)")
	return t, nil
}

type e10Result struct {
	committed, inFlight, redone int
	verified                    string
	leaked                      int
	wall                        string
}

func e10Run(commits int) (e10Result, error) {
	inj := fault.NewInjector(int64(commits))
	c, err := core.New(core.Config{LogFragments: 4096, Fault: inj})
	if err != nil {
		return e10Result{}, err
	}
	defer func() { _ = c.Close() }()

	type expected struct {
		fid  txn.FileID
		data []byte
	}
	var committedData []expected
	rng := rand.New(rand.NewSource(int64(commits)))
	// Commit `commits` transactions normally, crash-injecting the final one
	// after its commit point.
	for i := 0; i < commits; i++ {
		id, err := c.Txns.Begin(1)
		if err != nil {
			return e10Result{}, err
		}
		fid, err := c.Txns.Create(id, fit.Attributes{Locking: fit.LockPage})
		if err != nil {
			return e10Result{}, err
		}
		data := make([]byte, 1000+rng.Intn(20000))
		rng.Read(data)
		if _, err := c.Txns.PWrite(id, fid, 0, data); err != nil {
			return e10Result{}, err
		}
		if i == commits-1 {
			inj.Arm(txn.PtCommitAfterLog, fault.Action{Kind: fault.KindCrash})
			if crashed, err := fault.Run(func() error { return c.Txns.End(id) }); crashed == nil {
				return e10Result{}, fmt.Errorf("crash after the commit point did not fire (End: %v)", err)
			}
		} else if err := c.Txns.End(id); err != nil {
			return e10Result{}, err
		}
		committedData = append(committedData, expected{fid, data})
	}
	// One tentative transaction in flight.
	tentID, err := c.Txns.Begin(2)
	if err != nil {
		return e10Result{}, err
	}
	tentFID := committedData[0].fid
	if err := c.Txns.Open(tentID, tentFID, fit.LockNone); err != nil {
		return e10Result{}, err
	}
	marker := bytes.Repeat([]byte("TENT"), 64)
	if _, err := c.Txns.PWrite(tentID, tentFID, 0, marker); err != nil {
		return e10Result{}, err
	}

	// Crash and recover.
	if err := c.Crash(); err != nil {
		return e10Result{}, err
	}
	start := time.Now()
	redone, err := c.Recover()
	if err != nil {
		return e10Result{}, err
	}
	wall := time.Since(start)

	// Verify.
	ok := 0
	for _, e := range committedData {
		got, err := c.Files.ReadAt(e.fid, 0, len(e.data))
		if err == nil && bytes.Equal(got, e.data) {
			ok++
		}
	}
	leaked := 0
	got, err := c.Files.ReadAt(tentFID, 0, len(marker))
	if err == nil && bytes.HasPrefix(got, []byte("TENT")) {
		leaked = 1
	}
	return e10Result{
		committed: commits,
		inFlight:  1,
		redone:    redone,
		verified:  fmt.Sprintf("%d/%d", ok, commits),
		leaked:    leaked,
		wall:      fmtDuration(wall),
	}, nil
}
