package fileservice

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/device"
	"repro/internal/diskservice"
	"repro/internal/fit"
	"repro/internal/obs"
	"repro/internal/stable"
)

// benchService builds a file service without a testing.T (benchmarks).
func benchService(b *testing.B, disks int) *Service {
	b.Helper()
	g := device.Geometry{FragmentsPerTrack: 32, Tracks: 2048}
	var srvs []*diskservice.Server
	for i := 0; i < disks; i++ {
		d, err := device.New(g)
		if err != nil {
			b.Fatal(err)
		}
		sp, _ := device.New(g)
		sm, _ := device.New(g)
		st, err := stable.NewStore(sp, sm)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = st.Close() })
		srv, err := diskservice.Format(diskservice.Config{DiskID: i, Disk: d, Stable: st})
		if err != nil {
			b.Fatal(err)
		}
		srvs = append(srvs, srv)
	}
	svc, err := New(Config{Disks: Servers(srvs...)})
	if err != nil {
		b.Fatal(err)
	}
	return svc
}

func BenchmarkWriteAt8KB(b *testing.B) {
	svc := benchService(b, 1)
	id, err := svc.Create(fit.Attributes{})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.WriteAt(id, int64(i%128)*BlockSize, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(BlockSize)
}

// BenchmarkReadAtCached8KB reads cached blocks whole and, in the half case,
// 4 KiB out of each 8 KiB block: a hit moves and allocates the bytes asked
// for, not the block they sit in.
func BenchmarkReadAtCached8KB(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{{"whole", BlockSize}, {"half", BlockSize / 2}} {
		b.Run(c.name, func(b *testing.B) {
			svc := benchService(b, 1)
			id, err := svc.Create(fit.Attributes{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := svc.WriteAt(id, 0, make([]byte, 64*BlockSize)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := svc.ReadAt(id, int64(i%(64*BlockSize/c.n)*c.n), c.n); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(c.n))
		})
	}
}

// BenchmarkReadAtColdRandom4K measures a random 4 KB read that misses: a
// 16 MB file against the default 256-block cache. A miss moves the block it
// needs, so the bytes allocated per read stay far below the 512 KB run (and
// its cached copy) a miss would cost if every fetch were sized for a stream.
func BenchmarkReadAtColdRandom4K(b *testing.B) {
	const blocks = 2048
	svc := benchService(b, 1)
	id, err := svc.Create(fit.Attributes{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := svc.WriteAt(id, 0, make([]byte, blocks*BlockSize)); err != nil {
		b.Fatal(err)
	}
	if err := svc.Flush(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(rng.Intn(2*blocks)) * (BlockSize / 2)
		if _, err := svc.ReadAt(id, off, BlockSize/2); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / uint64(b.N); b.N >= 1000 && perOp > 64<<10 {
		b.Fatalf("%d B/op, want at most %d: a random miss is moving more than it needs", perOp, 64<<10)
	}
	b.SetBytes(BlockSize / 2)
}

// BenchmarkReadAtCached8KBTraced is the tracer-enabled counterpart of
// BenchmarkReadAtCached8KB (which runs with no recorder installed — the
// nil-safe disabled path). The pair bounds the observability overhead:
// the disabled path must show no measurable delta against the seed, and
// the enabled path shows what a span + two histogram records cost.
func BenchmarkReadAtCached8KBTraced(b *testing.B) {
	svc := benchService(b, 1)
	svc.obsRec = obs.New()
	id, err := svc.Create(fit.Attributes{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := svc.WriteAt(id, 0, make([]byte, 64*BlockSize)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.ReadAt(id, int64(i%64)*BlockSize, BlockSize); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(BlockSize)
}

func BenchmarkReadAtCold512KB(b *testing.B) {
	svc := benchService(b, 1)
	id, err := svc.Create(fit.Attributes{})
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 512<<10)
	rand.New(rand.NewSource(1)).Read(data)
	if _, err := svc.WriteAt(id, 0, data); err != nil {
		b.Fatal(err)
	}
	if err := svc.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc.InvalidateCaches()
		svc.DropFITCache()
		if _, err := svc.ReadAt(id, 0, len(data)); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(512 << 10)
}

// BenchmarkCreateDelete measures one create plus delete beside the given
// number of resident files; the cost must not grow with it.
func BenchmarkCreateDelete(b *testing.B) {
	for _, files := range []int{100, 5000} {
		b.Run(fmt.Sprintf("files=%d", files), func(b *testing.B) {
			svc := benchService(b, 1)
			for i := 0; i < files; i++ {
				if _, err := svc.Create(fit.Attributes{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, err := svc.Create(fit.Attributes{})
				if err != nil {
					b.Fatal(err)
				}
				if err := svc.Delete(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
