// Striping: §7's claim that a file can be partitioned across disks — its
// size bounded only by total space — and that spreading extents turns
// multiple spindles into parallel bandwidth. The example writes and scans a
// 16 MB file on one disk and on four, comparing the makespan (overlap-aware
// completion time: concurrently dispatched transfers on different disks
// overlap, sequential ones sum).
//
// It then repeats the exercise on the rotating-parity layout (4 data + 1
// parity disk): the same striped bandwidth, but with single-disk-failure
// tolerance at 1.25x storage overhead — demonstrated by killing a drive
// mid-run and re-reading the whole file through XOR reconstruction.
//
//	go run ./examples/striping
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fileservice"
	"repro/internal/fit"
)

const fileSize = 16 << 20

func main() {
	single := run(1)
	striped := run(4)
	fmt.Printf("\n1 disk : %v\n4 disks: %v  (%.2fx faster)\n",
		single.Round(time.Millisecond), striped.Round(time.Millisecond),
		float64(single)/float64(striped))
	runParity()
}

func run(disks int) time.Duration {
	cluster, err := core.New(core.Config{
		Disks:            disks,
		Geometry:         device.Geometry{FragmentsPerTrack: 32, Tracks: 1024}, // 64 MB per disk
		Stripe:           fileservice.Spread,
		StripeUnitBlocks: 16,
		// Hold the whole file so writes reach the disks through the parallel
		// flush fan-out rather than one-at-a-time cache evictions.
		ServerCacheBlocks: 4096,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	id, err := cluster.Files.Create(fit.Attributes{})
	if err != nil {
		log.Fatal(err)
	}
	chunk := make([]byte, 1<<20)
	for off := 0; off < fileSize; off += len(chunk) {
		if _, err := cluster.Files.WriteAt(id, int64(off), chunk); err != nil {
			log.Fatal(err)
		}
	}
	if err := cluster.Files.Flush(); err != nil {
		log.Fatal(err)
	}
	cluster.InvalidateCaches()
	for off := 0; off < fileSize; off += len(chunk) {
		if _, err := cluster.Files.ReadAt(id, int64(off), len(chunk)); err != nil {
			log.Fatal(err)
		}
	}
	exts, err := cluster.Files.Extents(id)
	if err != nil {
		log.Fatal(err)
	}
	used := map[uint16]bool{}
	for _, e := range exts {
		used[e.Disk] = true
	}
	fmt.Printf("%d disk(s): 16 MB in %d extents over %d disk(s); per-disk busy times:",
		disks, len(exts), len(used))
	for _, d := range cluster.DiskTimes() {
		fmt.Printf(" %v", d.Round(time.Millisecond))
	}
	fmt.Println()
	return cluster.Makespan()
}

// runParity writes the same file onto a 4+1 rotating-parity array, kills a
// drive, and proves the file still reads back byte-identically through
// degraded (XOR-reconstructing) reads.
func runParity() {
	cluster, err := core.New(core.Config{
		Disks:             5,
		Layout:            core.LayoutParity,
		Geometry:          device.Geometry{FragmentsPerTrack: 32, Tracks: 1024}, // 64 MB per disk
		ServerCacheBlocks: 4096,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	arr := cluster.Parity()
	fmt.Printf("\nparity layout: %d data + 1 parity disk, %.2fx storage overhead (replication would pay 2.00x)\n",
		arr.DataDisks(), arr.StorageOverhead())

	id, err := cluster.Files.Create(fit.Attributes{})
	if err != nil {
		log.Fatal(err)
	}
	chunk := make([]byte, 1<<20)
	rng := rand.New(rand.NewSource(7))
	want := make([]byte, fileSize)
	rng.Read(want)
	for off := 0; off < fileSize; off += len(chunk) {
		copy(chunk, want[off:])
		if _, err := cluster.Files.WriteAt(id, int64(off), chunk); err != nil {
			log.Fatal(err)
		}
	}
	if err := cluster.Files.Flush(); err != nil {
		log.Fatal(err)
	}
	// The flush fanned small writes out across the stripes concurrently;
	// every stripe's parity must still be the XOR of its data units.
	if bad, err := arr.CheckParity(); err != nil || len(bad) != 0 {
		log.Fatalf("parity invariant after flush: %d bad stripes (%v)", len(bad), err)
	}

	cluster.InvalidateCaches()
	start := cluster.Makespan()
	scan(cluster, id, want, "healthy")
	healthy := cluster.Makespan() - start

	// Kill one drive: the next read trips over the failure, flips the array
	// to degraded mode, and reconstructs every lost unit by XOR across the
	// four survivors.
	fmt.Println("failing disk 2 mid-run...")
	cluster.Device(2).Fail()
	cluster.InvalidateCaches()
	start = cluster.Makespan()
	scan(cluster, id, want, "degraded")
	degraded := cluster.Makespan() - start
	fmt.Printf("healthy scan %v, degraded scan %v (one disk down, data served by reconstruction)\n",
		healthy.Round(time.Millisecond), degraded.Round(time.Millisecond))
}

func scan(cluster *core.Cluster, id fileservice.FileID, want []byte, label string) {
	chunk := 1 << 20
	for off := 0; off < fileSize; off += chunk {
		got, err := cluster.Files.ReadAt(id, int64(off), chunk)
		if err != nil {
			log.Fatalf("%s read at %d: %v", label, off, err)
		}
		if !bytes.Equal(got, want[off:off+chunk]) {
			log.Fatalf("%s read at %d: data mismatch", label, off)
		}
	}
	fmt.Printf("%s: 16 MB read back byte-identical\n", label)
}
