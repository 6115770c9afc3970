// Command rhodos-fsck demonstrates the facility's consistency machinery: it
// builds a cluster, applies a workload, injects a crash (and optional media
// corruption), runs recovery, and then checks every structural invariant —
// FIT decodability, extent bounds, overlap freedom, and free-space
// accounting. With -parity the cluster runs on the rotating-parity layout
// and the checks extend to the stripe parity invariant (each stripe's parity
// unit equals the XOR of its data units), plus a disk-crash scenario that
// verifies reconstruction.
//
// Usage:
//
//	rhodos-fsck            # crash-and-check scenario
//	rhodos-fsck -corrupt   # additionally corrupt a FIT to exercise stable healing
//	rhodos-fsck -parity    # parity layout: stripe invariant + one-disk-crash reconstruction
//	rhodos-fsck -torture   # run every registered crash-point scenario (E18) and check
//	                       # the recovery invariants after each injected crash
//	rhodos-fsck -shard 1/3 # register every file under a path homed on shard 1 of 3
//	                       # and verify the namespace-partition invariant post-recovery
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/fileservice"
	"repro/internal/fit"
	"repro/internal/naming"
)

func main() {
	os.Exit(run())
}

func run() int {
	corrupt := flag.Bool("corrupt", false, "corrupt a FIT on the main disk before checking")
	parity := flag.Bool("parity", false, "run on the parity layout; check the stripe invariant and one-disk reconstruction")
	files := flag.Int("files", 50, "files to create")
	torture := flag.Bool("torture", false, "run the crash-recovery torture scenarios (E18) and verify recovery invariants")
	seed := flag.Int64("seed", 1800, "base seed for -torture; scenario i runs from seed+i, making every run replayable")
	shardSpec := flag.String("shard", "", "check one shard's namespace slice as i/N: files are registered under paths homed on shard i and the partition invariant is verified after recovery")
	flag.Parse()

	if *torture {
		return tortureChecks(*seed)
	}
	shard, shards, err := cluster.ParseShard(*shardSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rhodos-fsck: %v\n", err)
		return 2
	}

	cfg := core.Config{}
	if *parity {
		cfg.Disks = 5
		cfg.Layout = core.LayoutParity
		cfg.Geometry = device.Geometry{FragmentsPerTrack: 32, Tracks: 256} // 16 MB per disk
	}
	c, err := core.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rhodos-fsck: %v\n", err)
		return 1
	}
	defer func() { _ = c.Close() }()

	fmt.Printf("populating %d files (basic + transactional)...\n", *files)
	// With -shard, every file is also registered under an attributed path
	// homed on this shard, the slice of the namespace this server would own
	// in a multi-node deployment.
	register := func(idx int, sys uint64) error {
		if *shardSpec == "" {
			return nil
		}
		return c.Naming.Register(naming.Entry{
			Name:       naming.Name{"type": "FILE", "path": fmt.Sprintf("%s/file%d", shardDir(shard, shards), idx)},
			Type:       naming.FileObject,
			SystemName: sys,
			Service:    fmt.Sprintf("shard%d", shard),
		})
	}
	rng := rand.New(rand.NewSource(1))
	var lastID uint64
	for i := 0; i < *files; i++ {
		if i%2 == 0 {
			id, err := c.Files.Create(fit.Attributes{})
			if err != nil {
				fmt.Fprintf(os.Stderr, "create: %v\n", err)
				return 1
			}
			if _, err := c.Files.WriteAt(id, 0, make([]byte, 1+rng.Intn(40000))); err != nil {
				fmt.Fprintf(os.Stderr, "write: %v\n", err)
				return 1
			}
			if err := register(i, uint64(id)); err != nil {
				fmt.Fprintf(os.Stderr, "register: %v\n", err)
				return 1
			}
			lastID = uint64(id)
		} else {
			tid, err := c.Txns.Begin(1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tbegin: %v\n", err)
				return 1
			}
			fid, err := c.Txns.Create(tid, fit.Attributes{Locking: fit.LockPage})
			if err != nil {
				fmt.Fprintf(os.Stderr, "tcreate: %v\n", err)
				return 1
			}
			if _, err := c.Txns.PWrite(tid, fid, 0, make([]byte, 1+rng.Intn(40000))); err != nil {
				fmt.Fprintf(os.Stderr, "twrite: %v\n", err)
				return 1
			}
			if err := c.Txns.End(tid); err != nil {
				fmt.Fprintf(os.Stderr, "tend: %v\n", err)
				return 1
			}
			if err := register(i, uint64(fid)); err != nil {
				fmt.Fprintf(os.Stderr, "register: %v\n", err)
				return 1
			}
		}
	}

	fmt.Println("crashing the machine (volatile state lost)...")
	if err := c.Crash(); err != nil {
		fmt.Fprintf(os.Stderr, "crash/remount: %v\n", err)
		return 1
	}
	redone, err := c.Recover()
	if err != nil {
		fmt.Fprintf(os.Stderr, "recover: %v\n", err)
		return 1
	}
	fmt.Printf("recovery redid %d committed transaction(s)\n", redone)

	if *corrupt {
		_, fitAddr, err := c.Files.FITLocation(fileservice.FileID(lastID))
		if err == nil {
			fmt.Printf("corrupting FIT fragment %d on the main disk...\n", fitAddr)
			_ = c.Device(0).CorruptFragment(fitAddr)
			c.InvalidateCaches()
		}
	}

	rep, err := c.Files.Check()
	if err != nil {
		fmt.Fprintf(os.Stderr, "check: %v\n", err)
		return 1
	}
	fmt.Printf("fsck: %d files, %d blocks, %d/%d fragments in use\n",
		rep.Files, rep.Blocks, rep.UsedFragments, rep.TotalFragments)
	if !rep.Ok() {
		for _, p := range rep.Problems {
			fmt.Fprintf(os.Stderr, "PROBLEM: %s\n", p)
		}
		return 1
	}
	fmt.Println("fsck: clean")

	if *shardSpec != "" {
		entries := c.Naming.Entries()
		foreign := 0
		for _, e := range entries {
			p, ok := e.Name["path"]
			if !ok {
				continue
			}
			if home := cluster.ShardForPath(p, shards); home != shard {
				fmt.Fprintf(os.Stderr, "PROBLEM: %s homes on shard %d, not this shard (%d)\n", p, home, shard)
				foreign++
			}
		}
		if foreign != 0 {
			fmt.Fprintf(os.Stderr, "namespace: %d entr(ies) violate the partition invariant\n", foreign)
			return 1
		}
		fmt.Printf("namespace: all %d path entries home on shard %d/%d\n", len(entries), shard, shards)
	}

	if *parity {
		if rc := parityChecks(c); rc != 0 {
			return rc
		}
	}
	return 0
}

// shardDir returns a directory whose files home on the given shard — the
// first probe directory whose parent-directory hash lands there.
func shardDir(shard, shards int) string {
	for k := 0; ; k++ {
		d := fmt.Sprintf("/shardck/d%d", k)
		if cluster.ShardForPath(d+"/f", shards) == shard {
			return d
		}
	}
}

// tortureChecks runs every E18 torture scenario — each one arms a fault at a
// registered crash point, kills the run mid-operation, reopens the stores,
// runs recovery, and verifies the recovery invariants (committed data
// durable, unfinished transactions invisible, mirrors reconciled, stripe
// parity consistent, fsck clean).
func tortureChecks(seedBase int64) int {
	scenarios := experiments.TortureScenarios()
	fmt.Printf("torture: %d crash scenarios, base seed %d\n", len(scenarios), seedBase)
	failed := 0
	for i, sc := range scenarios {
		seed := seedBase + int64(i)
		res, err := experiments.RunTorture(sc, seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "PROBLEM: %s [%s] seed %d: %v\n", sc.Point, sc.Mode(), seed, err)
			failed++
			continue
		}
		status := "ok"
		if len(res.Violations) > 0 {
			status = "VIOLATED"
			failed++
		}
		fmt.Printf("  %-28s %-18s seed %-5d fired=%d redone=%d outcome=%-9s %s\n",
			sc.Point, sc.Mode(), seed, res.Fired, res.Redone, res.Outcome, status)
		for _, v := range res.Violations {
			fmt.Fprintf(os.Stderr, "PROBLEM: %s: %s\n", sc.Point, v)
		}
	}
	if failed != 0 {
		fmt.Fprintf(os.Stderr, "torture: %d/%d scenario(s) violated recovery invariants\n", failed, len(scenarios))
		return 1
	}
	fmt.Printf("torture: all %d scenarios recovered with every invariant intact\n", len(scenarios))
	return 0
}

// parityChecks verifies the stripe parity invariant across the whole array,
// then crashes one disk and proves every file still reads back identically
// through XOR reconstruction.
func parityChecks(c *core.Cluster) int {
	arr := c.Parity()
	if err := c.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "flush: %v\n", err)
		return 1
	}
	fmt.Printf("parity: checking %d stripes over %d disks (unit 1 fragment(s))...\n",
		arr.Stripes(), arr.Disks())
	bad, err := arr.CheckParity()
	if err != nil {
		fmt.Fprintf(os.Stderr, "parity check: %v\n", err)
		return 1
	}
	if len(bad) != 0 {
		fmt.Fprintf(os.Stderr, "PROBLEM: parity invariant violated on %d stripe(s): %v\n", len(bad), bad)
		return 1
	}
	fmt.Println("parity: every stripe's parity unit equals the XOR of its data units")

	// Snapshot every file, crash one disk, and re-read everything degraded.
	type snap struct {
		id   fileservice.FileID
		data []byte
	}
	ids, err := c.Files.List()
	if err != nil {
		fmt.Fprintf(os.Stderr, "list: %v\n", err)
		return 1
	}
	var snaps []snap
	for _, id := range ids {
		sz, err := c.Files.Size(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "size %d: %v\n", id, err)
			return 1
		}
		if sz == 0 {
			continue
		}
		data, err := c.Files.ReadAt(id, 0, int(sz))
		if err != nil {
			fmt.Fprintf(os.Stderr, "read %d: %v\n", id, err)
			return 1
		}
		snaps = append(snaps, snap{id, data})
	}
	const failDisk = 2
	fmt.Printf("parity: crashing disk %d and re-reading %d file(s) degraded...\n", failDisk, len(snaps))
	c.Device(failDisk).Fail()
	c.InvalidateCaches()
	for _, s := range snaps {
		got, err := c.Files.ReadAt(s.id, 0, len(s.data))
		if err != nil {
			fmt.Fprintf(os.Stderr, "PROBLEM: degraded read of file %d: %v\n", s.id, err)
			return 1
		}
		if !bytes.Equal(got, s.data) {
			fmt.Fprintf(os.Stderr, "PROBLEM: file %d reconstructed incorrectly\n", s.id)
			return 1
		}
	}
	if arr.FailedDisk() != failDisk {
		fmt.Fprintf(os.Stderr, "PROBLEM: array did not detect the failure (failed=%d)\n", arr.FailedDisk())
		return 1
	}
	fmt.Printf("parity: all %d file(s) reconstructed byte-identically with disk %d down\n",
		len(snaps), failDisk)

	// Bring the disk back and rebuild to full redundancy.
	c.Device(failDisk).Repair()
	if err := arr.ReplaceDisk(failDisk, c.DiskServer(failDisk)); err != nil {
		fmt.Fprintf(os.Stderr, "replace: %v\n", err)
		return 1
	}
	if err := arr.Rebuild(); err != nil {
		fmt.Fprintf(os.Stderr, "rebuild: %v\n", err)
		return 1
	}
	bad, err = arr.CheckParity()
	if err != nil {
		fmt.Fprintf(os.Stderr, "post-rebuild parity check: %v\n", err)
		return 1
	}
	if len(bad) != 0 {
		fmt.Fprintf(os.Stderr, "PROBLEM: post-rebuild parity invariant violated on stripes %v\n", bad)
		return 1
	}
	fmt.Println("parity: rebuild complete, invariant clean")
	return 0
}
