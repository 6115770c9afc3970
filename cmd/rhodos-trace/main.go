// Command rhodos-trace drives a synthetic workload through a full facility
// and reports the resulting operation and cache profile — a quick way to see
// how the design behaves under a given file-size mix and access pattern.
//
// The workload is driven through a client file agent (client cache disabled)
// so every operation descends the full Figure-1 stack and the observability
// recorder captures a per-layer latency breakdown.
//
// Usage:
//
//	rhodos-trace -files 200 -ops 5000 -readfrac 0.8 -dist office
//	rhodos-trace -dist exp -mean 32768 -seq
//	rhodos-trace -profile            # per-layer p50/p95/p99 table
//	rhodos-trace -profile -json      # machine-readable run + profile
//	rhodos-trace -spans 3            # dump the 3 most recent span trees
//
// With -commit N the drive phase becomes N concurrent committers running
// record-mode transactions (splitting -ops commits between them) with the
// log devices slowed to wall-clock, so the profile shows the commit path:
// the wal layer's sync barriers and the txn.group.batch_size histogram.
// -nogroup disables group commit for the one-sync-per-commit baseline:
//
//	rhodos-trace -commit 8 -profile           # group commit (default)
//	rhodos-trace -commit 8 -nogroup -profile  # baseline: one sync per commit
//
// With -cluster the command is a fleet scraper instead of a workload
// driver: it polls each listed rhodosd debug address (/debug/healthz,
// /debug/profile, /debug/events, /debug/flight), merges the per-node
// histograms into one fleet-wide per-layer profile, prints the failover
// event timeline across nodes, and stitches cross-node span trees:
//
//	rhodos-trace -cluster 127.0.0.1:7481,127.0.0.1:7482 -spans 3
//	rhodos-trace -cluster 127.0.0.1:7481,127.0.0.1:7482 -json > fleet.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fit"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/txn"
	"repro/internal/workload"
)

func main() {
	os.Exit(run())
}

// traceResult is the machine-readable form of one rhodos-trace run (-json).
// All durations are nanoseconds.
type traceResult struct {
	Files          int              `json:"files"`
	Dist           string           `json:"dist"`
	Ops            int              `json:"ops"`
	ReadFrac       float64          `json:"read_frac"`
	OpSize         int              `json:"op_size"`
	Sequential     bool             `json:"sequential"`
	Disks          int              `json:"disks"`
	PopulateWallNS int64            `json:"populate_wall_ns"`
	DriveWallNS    int64            `json:"drive_wall_ns"`
	SimTimeNS      int64            `json:"sim_time_ns"`
	Committers     int              `json:"committers,omitempty"`
	GroupCommit    bool             `json:"group_commit,omitempty"`
	DiskRefs       int64            `json:"disk_refs"`
	ServerHitRate  float64          `json:"server_hit_rate"`
	TrackHitRate   float64          `json:"track_hit_rate"`
	Counters       map[string]int64 `json:"counters"`
	Profile        *obs.Profile     `json:"profile,omitempty"`
	Spans          []*obs.SpanData  `json:"spans,omitempty"`
}

func run() int {
	files := flag.Int("files", 100, "number of files")
	ops := flag.Int("ops", 2000, "number of operations")
	readFrac := flag.Float64("readfrac", 0.8, "fraction of reads")
	opSize := flag.Int("opsize", 4096, "bytes per operation")
	dist := flag.String("dist", "office", "file-size distribution: office|exp|fixed")
	mean := flag.Int("mean", 16384, "mean/fixed size for exp/fixed distributions")
	seq := flag.Bool("seq", false, "sequential access within files")
	seed := flag.Int64("seed", 1, "workload seed")
	disks := flag.Int("disks", 1, "number of disks")
	profile := flag.Bool("profile", false, "print the per-layer latency profile")
	spans := flag.Int("spans", 0, "dump the N most recent completed span trees")
	jsonOut := flag.Bool("json", false, "emit the run summary, counters and profile as JSON")
	commit := flag.Int("commit", 0, "drive N concurrent committers (record-mode transactions) instead of the read/write mix")
	noGroup := flag.Bool("nogroup", false, "disable group commit: one WAL sync per commit (only meaningful with -commit)")
	traceSample := flag.Int("trace-sample", 1, "build a span tree for one operation in N, and wall-time one interior bracket in N (1 = every operation, rhodosd's default is 64); the profile's counts, virtual times and roots' wall times cover every operation regardless")
	clusterAddrs := flag.String("cluster", "", "comma-separated rhodosd debug addresses: scrape and merge the fleet's profiles instead of driving a workload")
	flag.Parse()

	if *clusterAddrs != "" {
		return runFleet(strings.Split(*clusterAddrs, ","), *jsonOut, *spans)
	}

	var sizeDist workload.SizeDist
	switch *dist {
	case "office":
		sizeDist = workload.OfficeFiles()
	case "exp":
		sizeDist = workload.Exponential{Mean: *mean, Cap: 4 << 20}
	case "fixed":
		sizeDist = workload.Fixed{N: *mean}
	default:
		fmt.Fprintf(os.Stderr, "rhodos-trace: unknown distribution %q\n", *dist)
		return 2
	}

	met := metrics.NewSet()
	rec := obs.New(obs.WithSampleRate(*traceSample))
	cluster, err := core.New(core.Config{
		Disks:    *disks,
		Geometry: device.Geometry{FragmentsPerTrack: 32, Tracks: 8192}, // 512 MB/disk
		Metrics:  met,
		// The client cache is off so every driven operation descends the
		// full stack and the per-layer profile reflects real path costs.
		DisableClientCache: true,
		Obs:                rec,
		GroupCommit:        txn.GroupCommitConfig{Disable: *noGroup},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rhodos-trace: %v\n", err)
		return 1
	}
	defer func() { _ = cluster.Close() }()

	m, err := cluster.NewMachine()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rhodos-trace: %v\n", err)
		return 1
	}
	fa, proc := m.FileAgent(), m.NewProcess()

	// Populate.
	rng := rand.New(rand.NewSource(*seed))
	sizes := workload.FileSet(sizeDist, *files, *seed)
	fds := make([]int, 0, *files)
	gens := make([]*workload.AccessGen, 0, *files)
	start := time.Now()
	for i, size := range sizes {
		fd, err := fa.Create(proc, fmt.Sprintf("/trace/f%04d", i), fit.Attributes{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "create: %v\n", err)
			return 1
		}
		buf := make([]byte, size)
		rng.Read(buf)
		if _, err := fa.PWrite(proc, fd, 0, buf); err != nil {
			fmt.Fprintf(os.Stderr, "populate: %v\n", err)
			return 1
		}
		fds = append(fds, fd)
		gens = append(gens, &workload.AccessGen{
			FileSize: int64(size), ReadFrac: *readFrac,
			OpSize: min(*opSize, size), Sequential: *seq,
		})
	}
	populate := time.Since(start)
	if err := cluster.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "flush: %v\n", err)
		return 1
	}
	cluster.InvalidateCaches()
	met.Reset()

	// Drive.
	start = time.Now()
	if *commit > 0 {
		if err := driveCommits(cluster, m, *commit, *ops, *opSize); err != nil {
			fmt.Fprintf(os.Stderr, "commit: %v\n", err)
			return 1
		}
	} else {
		for i := 0; i < *ops; i++ {
			k := rng.Intn(len(fds))
			a := gens[k].Next(rng)
			if a.Read {
				if _, err := fa.PRead(proc, fds[k], a.Offset, a.Length); err != nil {
					fmt.Fprintf(os.Stderr, "read: %v\n", err)
					return 1
				}
			} else {
				buf := make([]byte, a.Length)
				rng.Read(buf)
				if _, err := fa.PWrite(proc, fds[k], a.Offset, buf); err != nil {
					fmt.Fprintf(os.Stderr, "write: %v\n", err)
					return 1
				}
			}
		}
	}
	drive := time.Since(start)

	snap := met.Snapshot()
	refs := snap[metrics.DiskReferences]
	serverRate := metrics.HitRate(snap[metrics.ServerCacheHit], snap[metrics.ServerCacheMiss])
	trackRate := metrics.HitRate(snap[metrics.TrackCacheHit], snap[metrics.TrackCacheMiss])

	if *jsonOut {
		res := traceResult{
			Files: *files, Dist: *dist, Ops: *ops, ReadFrac: *readFrac,
			OpSize: *opSize, Sequential: *seq, Disks: *disks,
			PopulateWallNS: populate.Nanoseconds(),
			DriveWallNS:    drive.Nanoseconds(),
			SimTimeNS:      met.SimTime().Nanoseconds(),
			Committers:     *commit,
			GroupCommit:    *commit > 0 && !*noGroup,
			DiskRefs:       refs,
			ServerHitRate:  serverRate,
			TrackHitRate:   trackRate,
			Counters:       snap,
		}
		if *profile {
			res.Profile = rec.Profile()
		}
		if *spans > 0 {
			trees := rec.Flight()
			if len(trees) > *spans {
				trees = trees[len(trees)-*spans:]
			}
			res.Spans = trees
		}
		out, err := json.MarshalIndent(&res, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "rhodos-trace: %v\n", err)
			return 1
		}
		fmt.Println(string(out))
		return 0
	}

	if *commit > 0 {
		mode := "group commit"
		if *noGroup {
			mode = "no group commit (one sync per commit)"
		}
		fmt.Printf("workload : %d committers x %d record-mode commits (%dB), %s\n",
			*commit, *ops / *commit, *opSize, mode)
	} else {
		fmt.Printf("workload : %d files (%s), %d ops (%.0f%% reads, %dB, seq=%v) on %d disk(s)\n",
			*files, *dist, *ops, *readFrac*100, *opSize, *seq, *disks)
	}
	fmt.Printf("populate : %v wall\n", populate.Round(time.Millisecond))
	fmt.Printf("drive    : %v wall, %v simulated disk time\n",
		drive.Round(time.Millisecond), met.SimTime().Round(time.Millisecond))
	fmt.Printf("disk refs: %d (%.3f per op)\n", refs, float64(refs)/float64(*ops))
	fmt.Printf("caches   : server %.0f%%  track %.0f%%\n", 100*serverRate, 100*trackRate)
	fmt.Println("\ncounters:")
	fmt.Print(met.String())
	if *profile {
		fmt.Println()
		rec.Profile().Render(os.Stdout)
	}
	if *spans > 0 {
		trees := rec.Flight()
		if len(trees) > *spans {
			trees = trees[len(trees)-*spans:]
		}
		fmt.Printf("\nmost recent span trees (%d of %d retained):\n", len(trees), len(rec.Flight()))
		for _, tr := range trees {
			tr.Render(os.Stdout)
		}
	}
	return 0
}

// driveCommits splits ops commits across workers goroutines, each running
// record-mode transactions on its own file. The log devices are slowed to
// wall-clock for the duration (as in E19), so the sync-barrier count — not
// scheduling noise — dominates the drive time and the wal layer's profile.
func driveCommits(cluster *core.Cluster, m *agent.Machine, workers, ops, opSize int) error {
	payload := make([]byte, opSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	per := ops / workers
	if per == 0 {
		per = 1
	}
	cluster.SetLogWallFactor(0.05)
	defer cluster.SetLogWallFactor(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := m.NewProcess()
			path := fmt.Sprintf("/trace/c%04d", w)
			for j := 0; j < per; j++ {
				id, err := p.TBegin()
				if err != nil {
					errs[w] = err
					return
				}
				var fd int
				if j == 0 {
					fd, err = p.TCreate(id, path, fit.Attributes{Locking: fit.LockRecord})
				} else {
					fd, err = p.TOpen(id, path, fit.LockRecord)
				}
				if err != nil {
					errs[w] = err
					return
				}
				if _, err := p.TPWrite(id, fd, int64(j*opSize), payload); err != nil {
					errs[w] = err
					return
				}
				if err := p.TEnd(id); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			return fmt.Errorf("committer %d: %w", w, err)
		}
	}
	return nil
}
