package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/ccache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/intentions"
	"repro/internal/lock"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/parity"
	"repro/internal/rpc"
	"repro/internal/simclock"
	"repro/internal/stable"
	"repro/internal/txn"
	"repro/internal/wal"
)

// TortureKind selects the recipe a torture scenario runs under.
type TortureKind int

// Torture recipes.
const (
	// TortureTxn interrupts a transaction commit at an armed point and checks
	// the recovery contract: the earlier committed transaction stays durable,
	// the interrupted one is either fully durable or fully invisible, and the
	// stable mirrors reconcile.
	TortureTxn TortureKind = iota
	// TortureParity kills a parity rebuild mid-stripe and checks that a
	// restarted rebuild converges to a consistent array.
	TortureParity
	// TortureMedia injects a media error on a stable read and checks the
	// careful-read fallback to the mirror.
	TortureMedia
	// TortureGroup kills a group-commit batch leader at a batch boundary
	// while several committers share the batch, and checks the batch-wide
	// contract: every unacknowledged member is fully durable or fully
	// invisible after recovery — never a mix within one batch, never a torn
	// member.
	TortureGroup
	// TortureKillServer reboots one shard of a two-shard networked cluster:
	// the victim's machine dies at the armed commit point (its TCP server
	// goes with it) while the surviving shard keeps serving; after log
	// replay the interrupted commit honors the durability contract and the
	// restarted server picks its clients back up.
	TortureKillServer
	// TortureLease partitions a lock-holding client from its shard: armed
	// renewal drops starve the lease, the server's sweeper breaks the
	// transaction's locks, and a competitor wins them (§6.4's break path
	// driven by client liveness instead of lock age).
	TortureLease
	// TortureFailover kills the primary of a replicated shard pair at the
	// armed replication point and checks the failover contract: a mutation
	// acknowledged nowhere (the primary died holding the reply) completes
	// exactly once against the promoted backup, replicated state survives
	// the handover, unreplicated state does not outlive a severed stream,
	// and the promoted backup serves new mutations.
	TortureFailover
	// TortureWriteback crashes a client-cache write-back at the group
	// commit's sync: dirty blocks buffered in the cache flush through a
	// transactional sink as one transaction whose commit joins a
	// group-commit batch, the batch leader dies at the armed point, and
	// after recovery every dirty run the flush carried must be durable or
	// invisible as a unit — never one run without the other, never a torn
	// block.
	TortureWriteback
)

// tortureRecipe is one row of the dispatch table: the recipe cell, the mode
// cell for each action kind the recipe renders its own way, and the runner.
type tortureRecipe struct {
	name  string
	modes map[fault.Kind]string
	run   func(TortureScenario, int64) (*TortureResult, error)
}

var tortureRecipes = [...]tortureRecipe{
	TortureTxn:        {name: "txn-commit", run: runTortureTxn},
	TortureParity:     {name: "parity-rebuild", run: runTortureParity},
	TortureMedia:      {name: "media-read", run: runTortureMedia},
	TortureGroup:      {name: "group-commit", run: runTortureGroup},
	TortureKillServer: {name: "kill-server", run: runTortureKillServer},
	TortureLease: {name: "lease-expiry", run: runTortureLease,
		modes: map[fault.Kind]string{fault.KindError: "renewals dropped"}},
	TortureFailover: {name: "shard-failover", run: runTortureFailover,
		modes: map[fault.Kind]string{fault.KindDelay: "ack stalled+kill", fault.KindError: "stream severed+kill"}},
	TortureWriteback: {name: "cache-writeback", run: runTortureWriteback},
}

func (k TortureKind) recipe() (tortureRecipe, bool) {
	if k < 0 || int(k) >= len(tortureRecipes) {
		return tortureRecipe{}, false
	}
	return tortureRecipes[k], true
}

// String implements fmt.Stringer.
func (k TortureKind) String() string {
	if rc, ok := k.recipe(); ok {
		return rc.name
	}
	return fmt.Sprintf("TortureKind(%d)", int(k))
}

// TortureScenario is one registered fault point plus the action armed at it
// and the recovery outcome the harness demands.
type TortureScenario struct {
	Point  fault.Point
	Action fault.Action
	Kind   TortureKind
	// Durable, for the recipes that interrupt a commit (txn, group,
	// kill-server, write-back), is whether it must survive recovery (the
	// crash point is at or past the commit point) or must leave no trace
	// (the crash point precedes it).
	Durable bool
}

// Mode renders the armed action for the report.
func (sc TortureScenario) Mode() string {
	rc, _ := sc.Kind.recipe()
	mode, ok := rc.modes[sc.Action.Kind]
	switch {
	case ok:
	case sc.Action.Kind == fault.KindTorn:
		mode = fmt.Sprintf("torn(%d)+crash", sc.Action.Frags)
	case sc.Action.Kind == fault.KindError:
		mode = "media error"
	default:
		mode = sc.Action.Kind.String()
	}
	if sc.Action.After > 0 {
		mode += fmt.Sprintf(" @hit %d", sc.Action.After+1)
	}
	return mode
}

// want is the verdict recovery owes the interrupted commit.
func (sc TortureScenario) want() string {
	if sc.Durable {
		return "durable"
	}
	return "invisible"
}

// TortureScenarios enumerates the full torture matrix: every crash point the
// storage stack registers along the commit sequence (transaction service,
// WAL sync, stable careful write) and the parity rebuild, plus a media-error
// probe of the careful-read path. cmd/rhodos-fsck -torture runs the same
// list.
func TortureScenarios() []TortureScenario {
	crash := fault.Action{Kind: fault.KindCrash}
	// The interrupted transaction touches 3 blocks, each staged to stable
	// storage at PWrite time, so its 4th synchronous stable write is the
	// commit-point log sync — the stable.write scenarios skip the 3 staging
	// writes with After to strike the careful write that carries the commit.
	const skipStaging = 3
	return []TortureScenario{
		// Before the commit point: the interrupted transaction must vanish.
		{Point: txn.PtCommitBeforeLog, Action: crash, Kind: TortureTxn, Durable: false},
		{Point: wal.PtSyncBeforeWrite, Action: crash, Kind: TortureTxn, Durable: false},
		{Point: stable.PtWriteBeforePrimary, Action: fault.Action{Kind: fault.KindCrash, After: skipStaging},
			Kind: TortureTxn, Durable: false},
		{Point: stable.PtWritePrimary,
			Action: fault.Action{Kind: fault.KindTorn, Frags: 2, Crash: true, After: skipStaging},
			Kind:   TortureTxn, Durable: false},
		// At or past the commit point: the transaction must survive.
		{Point: stable.PtWriteAfterPrimary, Action: fault.Action{Kind: fault.KindCrash, After: skipStaging},
			Kind: TortureTxn, Durable: true},
		{Point: stable.PtWriteMirror,
			Action: fault.Action{Kind: fault.KindTorn, Frags: 1, Crash: true, After: skipStaging},
			Kind:   TortureTxn, Durable: true},
		{Point: wal.PtSyncAfterWrite, Action: crash, Kind: TortureTxn, Durable: true},
		{Point: txn.PtCommitAfterLog, Action: crash, Kind: TortureTxn, Durable: true},
		{Point: txn.PtCommitMidApply, Action: fault.Action{Kind: fault.KindCrash, After: 1},
			Kind: TortureTxn, Durable: true},
		{Point: txn.PtCommitAfterApply, Action: crash, Kind: TortureTxn, Durable: true},
		// Parity rebuild killed mid-resync, on either side of the stripe Put.
		{Point: parity.PtRebuildBeforePut, Action: fault.Action{Kind: fault.KindCrash, After: 3},
			Kind: TortureParity},
		{Point: parity.PtRebuildAfterPut, Action: fault.Action{Kind: fault.KindCrash, After: 3},
			Kind: TortureParity},
		// Careful read: a media error on the primary falls back to the mirror.
		{Point: device.PtRead, Action: fault.Action{Kind: fault.KindError, Err: device.ErrMediaError},
			Kind: TortureMedia},
		// Group commit: the batch leader dies on either side of the shared
		// sync, with several committers parked on the batch. Before the sync
		// nothing in the batch is durable; after it everything is, even
		// though no follower was ever told.
		{Point: txn.PtGroupBeforeSync, Action: crash, Kind: TortureGroup, Durable: false},
		{Point: txn.PtGroupLeaderSynced, Action: crash, Kind: TortureGroup, Durable: true},
		// A whole server dies mid-commit: same commit points as the txn
		// recipe, but the crash takes a shard of a networked cluster down
		// with it — the survivors must keep serving and the rebooted shard
		// must rejoin.
		{Point: txn.PtCommitBeforeLog, Action: crash, Kind: TortureKillServer, Durable: false},
		{Point: txn.PtCommitAfterLog, Action: crash, Kind: TortureKillServer, Durable: true},
		// A partitioned lock holder: every lease renewal drops until the
		// server's sweeper breaks the transaction.
		{Point: cluster.PtLeaseRenew, Action: fault.Action{Kind: fault.KindError, Times: -1},
			Kind: TortureLease},
		// Shard failover, crash-before-ack: the mutation is executed and
		// replicated, but the primary dies inside the stalled ack window —
		// the client was never answered, and its same-sequence retry must be
		// answered exactly once from the promoted backup's seeded duplicate
		// cache.
		{Point: cluster.PtReplAck, Action: fault.Action{Kind: fault.KindDelay, Delay: 400 * time.Millisecond},
			Kind: TortureFailover},
		// Shard failover, severed stream: every ship fails, the primary goes
		// solo, then dies. The replicated prefix survives on the promoted
		// backup; the solo suffix does not — the documented window of a
		// primary that chose availability over replication.
		{Point: cluster.PtReplShip, Action: fault.Action{Kind: fault.KindError, Times: -1},
			Kind: TortureFailover},
		// Client-cache write-back: the flush's dirty runs ride one
		// transaction into a group-commit batch, and the leader dies
		// right after the shared sync — past the commit point, so the whole
		// write-back must be durable.
		{Point: txn.PtGroupLeaderSynced, Action: crash, Kind: TortureWriteback, Durable: true},
	}
}

// TortureResult is one scenario's outcome.
type TortureResult struct {
	// Fired is how many times the armed action fired (from the injector's
	// trace, so a replay with the same seed fires identically).
	Fired int
	// Redone is the committed-transaction count replayed by recovery.
	Redone int
	// Outcome summarizes what recovery left behind: "durable", "invisible",
	// "rebuilt", "mirror-fallback", or "corrupt".
	Outcome string
	// Violations lists every recovery invariant that failed; empty means the
	// contract held.
	Violations []string
	// Dump is the flight-recorder snapshot taken the instant the armed
	// fault fired, with the interrupted operation's span tree in-flight.
	// Nil for scenarios that do not run a traced cluster.
	Dump *obs.FaultDump
}

func (r *TortureResult) fail(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// RunTorture executes one scenario from a seed. The same (scenario, seed)
// pair arms the same schedule and fires the same faults on every run.
func RunTorture(sc TortureScenario, seed int64) (*TortureResult, error) {
	rc, ok := sc.Kind.recipe()
	if !ok {
		return nil, fmt.Errorf("no torture recipe for %v", sc.Kind)
	}
	return rc.run(sc, seed)
}

// tortureRig is what a crash recipe strikes: a facility, the injector its
// fault points consult, and the recorder whose first fault dump the result
// carries (nil for an untraced facility).
type tortureRig struct {
	c   *core.Cluster
	inj *fault.Injector
	rec *obs.Recorder
}

// walFacility is the facility the commit recipes crash: logging forced to
// the WAL so every commit crosses the log's registered fault points.
func walFacility(inj *fault.Injector, rec *obs.Recorder) core.Config {
	return core.Config{
		Geometry:       device.Geometry{FragmentsPerTrack: 32, Tracks: 256},
		LogFragments:   2048,
		Fault:          inj,
		ForceTechnique: intentions.WAL,
		Obs:            rec,
	}
}

// newWALRig builds a traced in-process WAL facility armed from seed.
func newWALRig(seed int64, gc txn.GroupCommitConfig) (*tortureRig, error) {
	inj := fault.NewInjector(seed)
	rec := obs.New(obs.WithSampleRate(1)) // the fault dump must hold the op that died
	cfg := walFacility(inj, rec)
	cfg.GroupCommit = gc
	c, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &tortureRig{c: c, inj: inj, rec: rec}, nil
}

// commit runs one transaction for process pid that writes the runs into
// fid, creating the file when fid is zero, and returns the file.
func (r *tortureRig) commit(pid int, fid txn.FileID, runs ...fileservice.Run) (txn.FileID, error) {
	t, err := r.c.Txns.Begin(pid)
	if err != nil {
		return 0, err
	}
	if fid == 0 {
		fid, err = r.c.Txns.Create(t, fit.Attributes{Locking: fit.LockPage})
	} else {
		err = r.c.Txns.Open(t, fid, fit.LockPage)
	}
	if err != nil {
		return 0, err
	}
	for _, run := range runs {
		if _, err := r.c.Txns.PWrite(t, fid, run.Off, run.Data); err != nil {
			return 0, err
		}
	}
	return fid, r.c.Txns.End(t)
}

// seed commits each content as a new file and flushes, so the crash can
// only reach what the recipe commits afterwards.
func (r *tortureRig) seed(contents ...[]byte) ([]txn.FileID, error) {
	fids := make([]txn.FileID, len(contents))
	for i, data := range contents {
		var err error
		if fids[i], err = r.commit(1, 0, fileservice.Run{Data: data}); err != nil {
			return nil, err
		}
	}
	return fids, r.c.Flush()
}

// strike arms sc's fault, runs the ops concurrently under fault.Run, and
// disarms. Exactly one op must die, at the armed point; an op that returns
// any error but a crashed batch's ErrCommitInterrupted is a violation. The
// result carries the fire count and the first fault dump; acked[i] reports
// that op i returned nil.
func (r *tortureRig) strike(sc TortureScenario, ops ...func() error) (res *TortureResult, acked []bool, err error) {
	crashes := make([]*fault.Crash, len(ops))
	errs := make([]error, len(ops))
	var wg sync.WaitGroup
	start := make(chan struct{})
	r.inj.Arm(sc.Point, sc.Action)
	for i, op := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			crashes[i], errs[i] = fault.Run(op)
		}()
	}
	close(start)
	wg.Wait()
	r.inj.DisarmAll()

	var crashed []*fault.Crash
	for _, c := range crashes {
		if c != nil {
			crashed = append(crashed, c)
		}
	}
	if len(crashed) != 1 {
		return nil, nil, fmt.Errorf("fault at %s killed %d of %d ops, want exactly one (errs %v)",
			sc.Point, len(crashed), len(ops), errs)
	}
	if crashed[0].Point != sc.Point {
		return nil, nil, fmt.Errorf("crashed at %s, armed %s", crashed[0].Point, sc.Point)
	}
	res = &TortureResult{Fired: r.inj.Fired(sc.Point)}
	// The fault observer dumped the flight recorder as the fault fired; the
	// dying op is in that dump as an in-flight span tree.
	if dumps := r.rec.FaultDumps(); len(dumps) > 0 {
		res.Dump = dumps[0]
	}
	acked = make([]bool, len(ops))
	for i := range ops {
		acked[i] = crashes[i] == nil && errs[i] == nil
		if crashes[i] == nil && errs[i] != nil && !errors.Is(errs[i], txn.ErrCommitInterrupted) {
			res.fail("op %d: unexpected commit error %v", i, errs[i])
		}
	}
	return res, acked, nil
}

// reboot crashes the facility, reconciles its mirrors and replays the log.
// Every recipe that reboots seeded a commit first, so a replay that redid
// nothing lost it.
func (r *tortureRig) reboot(res *TortureResult) error {
	if err := r.c.Crash(); err != nil {
		return err
	}
	if err := checkMirrors(res, r.c, false); err != nil {
		return err
	}
	var err error
	if res.Redone, err = r.c.Recover(); err != nil {
		return err
	}
	if res.Redone < 1 {
		res.fail("recovery redid no committed transactions")
	}
	return nil
}

// settle is every crash recipe's last word: a second reconcile pass must
// find nothing left to heal, and the structural fsck must come back clean.
func (r *tortureRig) settle(res *TortureResult) (*TortureResult, error) {
	if err := checkMirrors(res, r.c, true); err != nil {
		return nil, err
	}
	rep, err := r.c.Files.Check()
	if err != nil {
		return nil, err
	}
	if !rep.Ok() {
		res.fail("fsck: %s", strings.Join(rep.Problems, "; "))
	}
	return res, nil
}

// classify names what recovery left of an overwrite of oldData with newData.
func classify(got, newData, oldData []byte) string {
	switch {
	case bytes.Equal(got, newData):
		return "durable"
	case bytes.Equal(got, oldData):
		return "invisible"
	default:
		return "corrupt"
	}
}

// checkMirrors runs the stable reconcile pass and records violations: no
// fragment may be lost on both mirrors, and when secondPass is set the pass
// must be a pure no-op — the crash's divergence was healed by the first one.
func checkMirrors(res *TortureResult, c *core.Cluster, secondPass bool) error {
	reps, err := c.StableRecoverAll()
	if err != nil {
		return err
	}
	for i, r := range reps {
		if r.UnrecoverableLost > 0 {
			res.fail("store %d: %d fragments lost on both mirrors", i, r.UnrecoverableLost)
		}
		if secondPass && r.PrimaryRepaired+r.MirrorRepaired+r.DivergenceHealed > 0 {
			res.fail("store %d: mirrors not reconciled (pass 2 repaired %d/%d, healed %d)",
				i, r.PrimaryRepaired, r.MirrorRepaired, r.DivergenceHealed)
		}
	}
	return nil
}

// runTortureTxn runs the txn-commit recipe on a traced in-process facility.
func runTortureTxn(sc TortureScenario, seed int64) (*TortureResult, error) {
	r, err := newWALRig(seed, txn.GroupCommitConfig{})
	if err != nil {
		return nil, err
	}
	defer func() { _ = r.c.Close() }()
	none := func(*TortureResult) error { return nil }
	return r.txnCommit(sc, rand.New(rand.NewSource(seed)), none, none)
}

// txnCommit is the txn-commit recipe: transaction A commits and is flushed,
// transaction B overwrites A's data and dies at the armed point, and after
// the reboot B must be durable or invisible as the scenario demands. down
// runs between the strike and the reboot, up between the verdict and
// settle; kill-server puts its networked outage and restart there.
func (r *tortureRig) txnCommit(sc TortureScenario, rng *rand.Rand, down, up func(*TortureResult) error) (*TortureResult, error) {
	oldData := make([]byte, 20000)
	rng.Read(oldData)
	newData := make([]byte, len(oldData))
	rng.Read(newData)
	fids, err := r.seed(oldData)
	if err != nil {
		return nil, err
	}
	fid := fids[0]

	res, _, err := r.strike(sc, func() error {
		_, err := r.commit(2, fid, fileservice.Run{Data: newData})
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := down(res); err != nil {
		return nil, err
	}
	if err := r.reboot(res); err != nil {
		return nil, err
	}
	got, err := r.c.Files.ReadAt(fid, 0, len(oldData))
	if err != nil {
		return nil, fmt.Errorf("reading survivor file: %w", err)
	}
	res.Outcome = classify(got, newData, oldData)
	if want := sc.want(); res.Outcome != want {
		res.fail("interrupted commit: want %s, got %s", want, res.Outcome)
	}
	if err := up(res); err != nil {
		return nil, err
	}
	return r.settle(res)
}

// runTortureGroup overwrites W per-worker files under W concurrent
// transactions whose commits share one group-commit batch, kills the batch
// leader at the armed point, reboots, recovers, and verifies the batch-wide
// atomicity contract: a worker whose End returned nil is durable; a worker
// that crashed or saw ErrCommitInterrupted is fully durable when the leader
// had synced (Durable scenarios) and fully invisible when the crash preceded
// the sync and no later batch synced behind it; no file is ever torn.
func runTortureGroup(sc TortureScenario, seed int64) (*TortureResult, error) {
	const workers = 4
	// MaxDelay makes the first leader linger, so all workers join one batch
	// and the armed crash strikes a batch with parked followers.
	r, err := newWALRig(seed, txn.GroupCommitConfig{MaxBatch: workers, MaxDelay: 100 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	defer func() { _ = r.c.Close() }()

	rng := rand.New(rand.NewSource(seed))
	olds, news := make([][]byte, workers), make([][]byte, workers)
	for i := range olds {
		olds[i] = make([]byte, 12000)
		rng.Read(olds[i])
		news[i] = make([]byte, len(olds[i]))
		rng.Read(news[i])
	}
	fids, err := r.seed(olds...)
	if err != nil {
		return nil, err
	}
	ops := make([]func() error, workers)
	for i := range ops {
		ops[i] = func() error {
			_, err := r.commit(10+i, fids[i], fileservice.Run{Data: news[i]})
			return err
		}
	}
	res, acked, err := r.strike(sc, ops...)
	if err != nil {
		return nil, err
	}
	anyAcked := slices.Contains(acked, true)
	if err := r.reboot(res); err != nil {
		return nil, err
	}

	nDurable, nInvisible := 0, 0
	for i := range fids {
		got, err := r.c.Files.ReadAt(fids[i], 0, len(olds[i]))
		if err != nil {
			return nil, fmt.Errorf("reading worker %d file: %w", i, err)
		}
		state := classify(got, news[i], olds[i])
		switch state {
		case "durable":
			nDurable++
		case "invisible":
			nInvisible++
		default:
			res.fail("worker %d: file torn after recovery", i)
			continue
		}
		switch {
		case acked[i] && state != "durable":
			res.fail("worker %d: commit acknowledged but %s after recovery", i, state)
		case !acked[i] && sc.Durable && state != "durable":
			// The leader synced the batch before dying: every member's
			// commit record is on stable storage.
			res.fail("worker %d: leader synced before crashing but commit %s", i, state)
		case !acked[i] && !sc.Durable && !anyAcked && state != "invisible":
			// No sync ever completed, so no member's record can be durable.
			// (A straggler batch that synced behind the crash legitimately
			// hardens earlier records; an acknowledged member detects that
			// run.)
			res.fail("worker %d: nothing was synced but commit %s", i, state)
		}
	}
	res.Outcome = fmt.Sprintf("%d durable / %d invisible", nDurable, nInvisible)
	return r.settle(res)
}

// txnFlushSink commits each cache flush as one transaction: every dirty
// run the flush carries becomes a PWrite inside a single Begin/End, so the
// whole write-back reaches the log atomically — what a caller that needs
// crash atomicity across a flush puts in ccache.Config.Sink.
type txnFlushSink struct {
	r   *tortureRig
	pid int
}

func (s *txnFlushSink) WriteRuns(id fileservice.FileID, runs []fileservice.Run) error {
	_, err := s.r.commit(s.pid, id, runs...)
	return err
}

// runTortureWriteback buffers two widely separated dirty runs in the client
// cache, flushes them through a transactional sink whose single commit joins
// a group-commit batch, and kills the batch leader at the armed point.
// After reboot and replay both runs must be durable together or invisible
// together — never one without the other, never a torn block — and the
// seeded bytes between them untouched.
func runTortureWriteback(sc TortureScenario, seed int64) (*TortureResult, error) {
	r, err := newWALRig(seed, txn.GroupCommitConfig{MaxBatch: 1, MaxDelay: 100 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	defer func() { _ = r.c.Close() }()

	// Seed a 5-block file with committed, flushed content the crash must
	// not disturb.
	const fileLen = 5 * int(ccache.BlockSize)
	rng := rand.New(rand.NewSource(seed))
	old := make([]byte, fileLen)
	rng.Read(old)
	fids, err := r.seed(old)
	if err != nil {
		return nil, err
	}
	fid := fids[0]

	// A local-mode cache over the recovered-facility file service, flushing
	// through the transactional sink. Two dirty runs: a full aligned block
	// at the front and an unaligned run straddling the block-3 boundary, so
	// the flush carries non-adjacent runs and the unaligned one exercises
	// the read-modify-write pre-image fetch.
	cc, err := ccache.New(ccache.Config{Inner: r.c.Files, Sink: &txnFlushSink{r: r, pid: 7}})
	if err != nil {
		return nil, err
	}
	runs := []fileservice.Run{
		{Off: 0, Data: make([]byte, ccache.BlockSize)},
		{Off: 3*ccache.BlockSize - 100, Data: make([]byte, 300)},
	}
	for _, run := range runs {
		rng.Read(run.Data)
	}
	for _, run := range runs {
		if _, err := cc.WriteAt(fid, run.Off, run.Data); err != nil {
			return nil, fmt.Errorf("buffering dirty run at %d: %w", run.Off, err)
		}
	}

	res, _, err := r.strike(sc, func() error { return cc.FlushFile(fid) })
	if err != nil {
		return nil, err
	}
	if err := r.reboot(res); err != nil {
		return nil, err
	}
	got, err := r.c.Files.ReadAt(fid, 0, fileLen)
	if err != nil {
		return nil, fmt.Errorf("reading cached file after recovery: %w", err)
	}
	var states [2]string
	outside := append([]byte(nil), old...) // got's runs over the seeded bytes
	for i, run := range runs {
		end := run.Off + int64(len(run.Data))
		states[i] = classify(got[run.Off:end], run.Data, old[run.Off:end])
		copy(outside[run.Off:end], got[run.Off:end])
	}
	res.Outcome = states[0]
	switch {
	case states[0] == "corrupt" || states[1] == "corrupt":
		res.fail("write-back torn within a run (front %s, straddle %s)", states[0], states[1])
		res.Outcome = "corrupt"
	case states[0] != states[1]:
		res.fail("write-back torn across runs: front block %s but straddling run %s", states[0], states[1])
		res.Outcome = "corrupt"
	case states[0] != sc.want():
		res.fail("write-back: want %s, got %s", sc.want(), states[0])
	}
	// Everything outside the two dirty runs must still be the seeded bytes.
	if !bytes.Equal(got, outside) {
		res.fail("seeded bytes outside the dirty runs disturbed by the write-back crash")
	}
	return r.settle(res)
}

// runTortureParity degrades a 3-disk parity array, mutates it degraded,
// kills the rebuild of the replacement at the armed stripe, reboots, re-runs
// the rebuild from scratch, and verifies the stripe-parity invariant, the
// file contents, and the mirrors.
func runTortureParity(sc TortureScenario, seed int64) (*TortureResult, error) {
	inj := fault.NewInjector(seed)
	c, err := core.New(core.Config{
		Disks:    3,
		Layout:   core.LayoutParity,
		Geometry: device.Geometry{FragmentsPerTrack: 32, Tracks: 128},
		Fault:    inj,
	})
	if err != nil {
		return nil, err
	}
	defer func() { _ = c.Close() }()
	r := &tortureRig{c: c, inj: inj}

	rng := rand.New(rand.NewSource(seed))
	ref := make([]byte, 256<<10)
	rng.Read(ref)
	fid, err := c.Files.Create(fit.Attributes{})
	if err != nil {
		return nil, err
	}
	if _, err := c.Files.WriteAt(fid, 0, ref); err != nil {
		return nil, err
	}
	if err := c.Flush(); err != nil {
		return nil, err
	}

	// Disk 1 dies; the file keeps changing while the array runs degraded, so
	// the replacement's pre-failure contents are stale and only a correct
	// rebuild can produce them.
	c.Device(1).Fail()
	c.InvalidateCaches()
	arr := c.Parity()
	if err := arr.MarkFailed(1); err != nil {
		return nil, err
	}
	for i := 0; i < 4; i++ {
		off := int64(i) * 50000
		patch := make([]byte, 30000)
		rng.Read(patch)
		copy(ref[off:], patch)
		if _, err := c.Files.WriteAt(fid, off, patch); err != nil {
			return nil, fmt.Errorf("degraded write %d: %w", i, err)
		}
	}
	if err := c.Flush(); err != nil {
		return nil, err
	}

	// Replace the disk and kill the rebuild at the armed stripe.
	c.Device(1).Repair()
	if err := arr.ReplaceDisk(1, c.DiskServer(1)); err != nil {
		return nil, err
	}
	res, _, err := r.strike(sc, arr.Rebuild)
	if err != nil {
		return nil, err
	}

	// Reboot. The half-rebuilt replacement is stale, so it is re-marked
	// failed and the rebuild restarts from stripe zero before the log
	// replays.
	if err := c.Crash(); err != nil {
		return nil, err
	}
	arr2 := c.Parity()
	if err := arr2.MarkFailed(1); err != nil {
		return nil, err
	}
	if err := arr2.ReplaceDisk(1, c.DiskServer(1)); err != nil {
		return nil, err
	}
	if err := arr2.Rebuild(); err != nil {
		return nil, fmt.Errorf("post-crash rebuild: %w", err)
	}
	res.Redone, err = c.Recover()
	if err != nil {
		return nil, err
	}
	res.Outcome = "rebuilt"

	bad, err := arr2.CheckParity()
	if err != nil {
		return nil, err
	}
	if len(bad) > 0 {
		res.fail("parity inconsistent on %d stripes (first %v)", len(bad), bad[0])
	}
	got, err := c.Files.ReadAt(fid, 0, len(ref))
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(got, ref) {
		res.fail("file contents diverged after rebuild")
	}
	if err := checkMirrors(res, c, false); err != nil {
		return nil, err
	}
	return r.settle(res)
}

// runTortureMedia writes through a standalone stable store, injects a media
// error on the next primary read, and verifies the careful-read fallback:
// the read succeeds from the mirror and a reconcile pass finds both copies
// whole.
func runTortureMedia(sc TortureScenario, seed int64) (*TortureResult, error) {
	inj := fault.NewInjector(seed)
	geom := device.Geometry{FragmentsPerTrack: 32, Tracks: 8}
	primary, err := device.New(geom, device.WithFault(inj))
	if err != nil {
		return nil, err
	}
	mirror, err := device.New(geom)
	if err != nil {
		return nil, err
	}
	st, err := stable.NewStore(primary, mirror, stable.WithFault(inj))
	if err != nil {
		return nil, err
	}
	defer func() { _ = st.Close() }()

	start, err := st.Allocate(4)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 4*device.FragmentSize)
	rng.Read(data)
	if err := st.Write(start, data); err != nil {
		return nil, err
	}

	act := sc.Action
	if act.Times == 0 {
		act.Times = 1 // only the primary read fails; the mirror must answer
	}
	inj.Arm(sc.Point, act)
	got, err := st.Read(start, 4)
	inj.DisarmAll()
	res := &TortureResult{Fired: inj.Fired(sc.Point), Outcome: "mirror-fallback"}
	if err != nil {
		res.fail("careful read did not survive the media error: %v", err)
		return res, nil
	}
	if !bytes.Equal(got, data) {
		res.fail("mirror fallback returned wrong data")
	}
	rep, err := st.Recover()
	if err != nil {
		return nil, err
	}
	if rep.UnrecoverableLost > 0 {
		res.fail("%d fragments lost on both mirrors", rep.UnrecoverableLost)
	}
	return res, nil
}

// tortureShardPath probes directory names until one homes on the wanted
// shard of a 2-shard namespace.
func tortureShardPath(shard, shards int) string {
	for i := 0; ; i++ {
		p := fmt.Sprintf("/e18/d%d/f", i)
		if cluster.ShardForPath(p, shards) == shard {
			return p
		}
	}
}

// runTortureKillServer runs the txn-commit recipe, untraced, on the victim
// shard's facility in a two-shard networked cluster, and the whole shard
// dies with transaction B: the victim's TCP server closes (the machine is
// down) and the harness checks availability alongside the commit contract —
// the surviving shard serves throughout, the victim's clients fail fast
// during the outage, and after log replay and a restart on the same
// endpoint they pick the shard back up.
func runTortureKillServer(sc TortureScenario, seed int64) (*TortureResult, error) {
	const shards = 2
	const victim = 1
	inj := fault.NewInjector(seed)

	lns, addrs, err := listenLoopback(shards)
	if err != nil {
		return nil, err
	}
	m := cluster.Map{Version: 1, Endpoints: addrs}
	nodes, err := startNodes(m, lns, func(i int) node.Config {
		if i == victim {
			return node.Config{Facility: walFacility(inj, nil)}
		}
		return node.Config{Facility: walFacility(nil, nil)}
	})
	if err != nil {
		return nil, err
	}
	defer closeNodes(nodes)

	// A routed client with one probe file per shard; the txn recipe's seed
	// flush hardens the victim's before the fault is armed.
	cl, err := node.Dial(node.ClientConfig{Endpoints: addrs, ClientID: 1, Retries: 3})
	if err != nil {
		return nil, err
	}
	defer func() { _ = cl.Close() }()
	mach, err := cl.NewMachine()
	if err != nil {
		return nil, err
	}
	proc := mach.NewProcess()
	fa := mach.FileAgent()
	rng := rand.New(rand.NewSource(seed))
	probe := make([]byte, 4096)
	rng.Read(probe)
	fds := make([]int, shards)
	for i := range fds {
		fd, err := fa.Create(proc, tortureShardPath(i, shards), fit.Attributes{})
		if err != nil {
			return nil, err
		}
		if _, err := fa.PWrite(proc, fd, 0, probe); err != nil {
			return nil, err
		}
		fds[i] = fd
	}

	outage := func(res *TortureResult) error {
		nodes[victim].Kill()
		if _, err := fa.PRead(proc, fds[0], 0, 64); err != nil {
			res.fail("surviving shard stopped serving during the outage: %v", err)
		}
		if _, err := fa.PRead(proc, fds[victim], 0, 64); err == nil {
			res.fail("reads through the dead shard succeeded during the outage")
		}
		return nil
	}
	restart := func(res *TortureResult) error {
		// The same address and endpoint (duplicate cache and client
		// sequence numbers carry over, as in a real server restart); the
		// router's transport re-dials on the next call.
		if err := nodes[victim].Restart(); err != nil {
			return err
		}
		back, err := fa.PRead(proc, fds[victim], 0, 64)
		if err != nil {
			res.fail("victim clients did not fail over after the restart: %v", err)
		} else if !bytes.Equal(back, probe[:64]) {
			res.fail("probe file corrupt after the restart")
		}
		return nil
	}
	r := &tortureRig{c: nodes[victim].Facility, inj: inj}
	return r.txnCommit(sc, rng, outage, restart)
}

// runTortureLease partitions a lock-holding client from its shard: the armed
// action drops every lease renewal, the server's sweeper breaks the starved
// transaction's locks, and a competitor wins them. The server's sweep and the
// clients' renewals run on one virtual clock the scenario steps, so the
// renewals dropped before the break are a fixed count.
func runTortureLease(sc TortureScenario, seed int64) (*TortureResult, error) {
	inj := fault.NewInjector(seed)
	const ttl = 50 * time.Millisecond
	clk := simclock.New()
	srv, err := startSolo(node.Config{
		Facility: core.Config{Geometry: device.Geometry{FragmentsPerTrack: 32, Tracks: 64}, Clock: clk},
		LeaseTTL: ttl,
		Fault:    inj,
	})
	if err != nil {
		return nil, err
	}
	defer func() { _ = srv.Close() }()
	c := srv.Facility

	dial := func(rpcID uint64) (*rpc.Client, func(), error) {
		tr, err := rpc.DialTCP(srv.Addr())
		if err != nil {
			return nil, nil, err
		}
		return rpc.NewClient(tr, rpcID, 5, nil), func() { _ = tr.Close() }, nil
	}
	rcA, closeA, err := dial(11)
	if err != nil {
		return nil, err
	}
	defer closeA()

	// The holder's renewals drop from the very first tick: the armed point
	// is the partition. A zero-delay action at the sweep point makes the
	// sweeper's break visible in the injector's trace.
	inj.Arm(sc.Point, sc.Action)
	inj.Arm(cluster.PtLeaseSweep, fault.Action{Kind: fault.KindDelay, Times: -1})
	defer inj.DisarmAll()
	lcA := cluster.NewLockClient(rcA, 1, ttl, clk, inj)
	defer lcA.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	item := lock.ItemID{File: 3, Offset: 0, Length: 128}
	if err := lcA.Acquire(ctx, 1, 1, lock.Record, item, lock.IWrite); err != nil {
		return nil, fmt.Errorf("holder acquire: %w", err)
	}

	// The sweeper must break the starved lease within a few TTLs: step the
	// clock one sweep period at a time.
	res := &TortureResult{}
	for i := 0; i < 16 && !c.Locks().Broken(1); i++ {
		clk.Advance(ttl / 4)
	}
	res.Fired = inj.Fired(sc.Point)
	if !c.Locks().Broken(1) {
		res.fail("lease sweeper never broke the partitioned holder's transaction")
	}
	if inj.Fired(cluster.PtLeaseSweep) < 1 {
		res.fail("lease sweep fault point never fired")
	}

	// A healthy competitor wins the freed lock.
	rcB, closeB, err := dial(12)
	if err != nil {
		return nil, err
	}
	defer closeB()
	lcB := cluster.NewLockClient(rcB, 2, ttl, clk, nil)
	defer lcB.Close()
	if err := lcB.Acquire(ctx, 2, 2, lock.Record, item, lock.IWrite); err != nil {
		res.fail("competitor could not win the broken lease's lock: %v", err)
	}
	res.Outcome = "lease-broken"
	return res, nil
}

// runTortureFailover kills the primary of a one-shard replicated pair at
// the armed replication point and verifies the failover contract against
// the promoted backup.
//
// KindDelay at cluster.repl.ack is the crash-before-ack window: a create is
// executed and replicated, then the primary dies holding the stalled reply.
// The client's same-sequence retransmission must be answered exactly once —
// from the duplicate cache the backup seeded while replaying the stream —
// and the created name must resolve exactly once afterwards.
//
// KindError at cluster.repl.ship severs the stream: the primary drops its
// backup and serves solo, then dies. The replicated prefix must survive on
// the promoted backup; the solo suffix must not (the documented window of a
// primary that chose availability over replication); and the promoted
// backup must serve fresh mutations.
func runTortureFailover(sc TortureScenario, seed int64) (*TortureResult, error) {
	rig, err := newFailoverRig(1, 0, 500*time.Millisecond, failoverReplTTL)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	inj := rig.injs[0]
	cl, err := node.Dial(node.ClientConfig{
		Endpoints: rig.m.Endpoints,
		Backups:   rig.m.Backups,
		ClientID:  1,
		Retries:   failoverRetries,
	})
	if err != nil {
		return nil, err
	}
	defer func() { _ = cl.Close() }()
	rt := cl.Router
	mach, err := cl.NewMachine()
	if err != nil {
		return nil, err
	}
	proc := mach.NewProcess()
	fa := mach.FileAgent()

	// The replicated baseline: on the backup before any fault is armed.
	rng := rand.New(rand.NewSource(seed))
	w1 := make([]byte, 8192)
	rng.Read(w1)
	fd1, err := fa.Create(proc, "/e18/rep/f1", fit.Attributes{})
	if err != nil {
		return nil, err
	}
	if _, err := fa.PWrite(proc, fd1, 0, w1); err != nil {
		return nil, err
	}

	res := &TortureResult{}
	inj.Arm(sc.Point, sc.Action)
	defer inj.DisarmAll()
	switch sc.Action.Kind {
	case fault.KindDelay:
		// Crash before the ack: the create below executes and replicates,
		// then stalls at the armed ack point; the primary is killed inside
		// the stall, so nobody ever answered the client.
		done := make(chan error, 1)
		go func() {
			_, err := fa.Create(proc, "/e18/rep/f2", fit.Attributes{})
			done <- err
		}()
		deadline := time.Now().Add(5 * time.Second)
		for inj.Fired(sc.Point) == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if inj.Fired(sc.Point) == 0 {
			return nil, fmt.Errorf("fault at %s never fired", sc.Point)
		}
		rig.killPrimary()
		if err := <-done; err != nil {
			res.fail("mutation acked nowhere did not complete across the failover: %v", err)
		}
		// Exactly once: the name resolves, and a second create of it is
		// refused — the retransmission was answered from the seeded
		// duplicate cache, not re-executed.
		if _, err := rt.ResolvePath("/e18/rep/f2"); err != nil {
			res.fail("created name lost across the failover: %v", err)
		}
		if _, err := fa.Create(proc, "/e18/rep/f2", fit.Attributes{}); err == nil {
			res.fail("re-creating the failed-over name succeeded; want already-registered")
		}
		res.Outcome = "acked exactly once"
	case fault.KindError:
		// Sever the stream: this create's ship fails, the primary drops the
		// backup and acknowledges solo. Everything from here on lives only
		// on the primary.
		fd2, err := fa.Create(proc, "/e18/solo/f2", fit.Attributes{})
		if err != nil {
			return nil, fmt.Errorf("solo create: %w", err)
		}
		if _, err := fa.PWrite(proc, fd2, 0, w1); err != nil {
			return nil, fmt.Errorf("solo write: %w", err)
		}
		rig.killPrimary()
		// The replicated prefix survives on the promoted backup; the solo
		// suffix does not.
		if _, err := rt.ResolvePath("/e18/rep/f1"); err != nil {
			res.fail("replicated name lost across the failover: %v", err)
		}
		if _, err := rt.ResolvePath("/e18/solo/f2"); err == nil {
			res.fail("solo-era name survived on the backup; the severed stream cannot have shipped it")
		}
		res.Outcome = "replicated prefix"
	default:
		return nil, fmt.Errorf("failover recipe cannot run action %v", sc.Action.Kind)
	}
	res.Fired = inj.Fired(sc.Point)

	// The replicated baseline reads back whole, and the promoted backup
	// serves fresh mutations.
	got, err := fa.PRead(proc, fd1, 0, len(w1))
	if err != nil {
		res.fail("replicated file unreadable after the failover: %v", err)
	} else if !bytes.Equal(got, w1) {
		res.fail("replicated file corrupt after the failover")
	}
	fd3, err := fa.Create(proc, "/e18/rep/f3", fit.Attributes{})
	if err != nil {
		res.fail("promoted backup refused a fresh create: %v", err)
	} else if _, err := fa.PWrite(proc, fd3, 0, w1[:512]); err != nil {
		res.fail("promoted backup refused a fresh write: %v", err)
	}
	if !rig.promoted() {
		res.fail("backup never promoted itself (role %v)", rig.backup.Service.Role())
	}
	return res, nil
}

// E18Torture runs the crash-recovery torture matrix: for each registered
// fault point in the commit sequence, the WAL sync, the stable careful
// write, and the parity rebuild, it kills the run at that point from a
// seeded schedule, reboots the facility, runs recovery, and verifies the
// invariants — committed data durable, unfinished transactions invisible,
// mirrors reconciled (a second reconcile pass is a no-op), stripe parity
// consistent, and the structural fsck clean.
func E18Torture() (*Table, error) {
	t := &Table{
		ID:    "E18",
		Title: "Crash-recovery torture across the storage stack",
		Claim: "recovery restores every invariant after a crash at any registered fault point",
		Columns: []string{"fault point", "mode", "recipe", "fired", "redone",
			"outcome", "flight dump", "invariants"},
	}
	const seedBase = 1800
	scs := TortureScenarios()
	for i, sc := range scs {
		seed := seedBase + int64(i)
		res, err := RunTorture(sc, seed)
		if err != nil {
			return nil, fmt.Errorf("E18 %s (seed %d): %w", sc.Point, seed, err)
		}
		inv := "all hold"
		if len(res.Violations) > 0 {
			inv = "VIOLATED: " + strings.Join(res.Violations, "; ")
		}
		dump := "-"
		if res.Dump != nil {
			dump = fmt.Sprintf("%d in-flight / %d recent", len(res.Dump.InFlight), len(res.Dump.Recent))
		}
		t.AddRow(string(sc.Point), sc.Mode(), sc.Kind.String(), res.Fired, res.Redone,
			res.Outcome, dump, inv)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("deterministic: scenario i runs from seed %d+i; the same seed fires the same faults", seedBase),
		"invariants: committed durable; unfinished invisible; mirrors reconciled (2nd pass no-op); parity consistent; fsck clean",
		"flight dump: span trees the flight recorder snapshotted the instant the fault fired (txn recipes run traced)",
		"kill-server: a 2-shard cluster's victim server crashes mid-commit and its TCP listener closes; the other shard must keep serving during the outage and the victim must recover and serve again on the same endpoint",
		"lease-expiry: every renewal is dropped at cluster.lease.renew until the server-side sweeper breaks the client's transaction and a competitor wins its lock",
		"shard-failover: a replicated pair's primary dies at the armed replication point; cluster.repl.ack is the crash-before-ack window (the retransmission must hit the backup's seeded duplicate cache exactly once), cluster.repl.ship severs the stream (only the replicated prefix may survive the handover)",
		"cache-writeback: dirty client-cache blocks flush through a transactional sink as one transaction whose commit joins a group-commit batch, and the leader dies after the shared sync; the flush's non-adjacent runs must be durable as a unit — never one run without the other, never a torn block")
	return t, nil
}
