// Quickstart: assemble a RHODOS facility, perform basic file operations
// through the per-machine agents (§3), and watch the cache hierarchy absorb
// re-reads.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/ccache"
	"repro/internal/core"
	"repro/internal/fit"
	"repro/internal/metrics"
	"repro/internal/obs"
)

func main() {
	// One facility: a simulated disk with a stable-storage mirror, a disk
	// server, the file service, the transaction service and naming. The
	// recorder is where the machine's client cache counts its hits.
	rec := obs.New()
	cluster, err := core.New(core.Config{Obs: rec})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// A client machine with its file, device and transaction agents.
	machine, err := cluster.NewMachine()
	if err != nil {
		log.Fatal(err)
	}
	proc := machine.NewProcess()
	fa := machine.FileAgent()

	// Create a file under an attributed name and write through the agent.
	fd, err := fa.Create(proc, "/docs/hello", fit.Attributes{})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := fa.Write(proc, fd, []byte("hello from the RHODOS file facility\n")); err != nil {
		log.Fatal(err)
	}
	if err := fa.Close(proc, fd); err != nil {
		log.Fatal(err)
	}

	// Another process resolves the same attributed name and reads.
	proc2 := machine.NewProcess()
	fd2, err := fa.Open(proc2, "/docs/hello")
	if err != nil {
		log.Fatal(err)
	}
	data, err := fa.Read(proc2, fd2, 100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read back: %s", data)

	// Re-reads are served by the client cache: no disk references.
	before := cluster.Metrics.Get(metrics.DiskReferences)
	for i := 0; i < 100; i++ {
		if _, err := fa.PRead(proc2, fd2, 0, 32); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("100 re-reads cost %d disk references (client cache hits: %d)\n",
		cluster.Metrics.Get(metrics.DiskReferences)-before,
		rec.Gauge(ccache.MetricHits).Value())

	fmt.Println("\nfacility counters:")
	fmt.Print(cluster.Metrics.String())
}
