package main

import (
	"syscall"
	"time"
)

// The reference kernel is how the benchmark tells a slow machine from slow
// code. The shared box slows down for minutes at a time, for every process
// on it, by up to a third — not by stealing CPU time the guest can see, but
// by contending for the memory system all these workloads lean on (each op
// allocates, clears and copies kilobytes). No estimator inside a 15 s window
// can separate that from a regression. So every worker, at every slice
// boundary, also runs a fixed piece of work of the benchmark's own — 4 KiB
// copies between random places of a private buffer far larger than the
// caches — and the run's end-to-end figures are scaled by how long that took
// against the time it takes on the reference box when quiet.
const (
	refKernelBytes  = 64 << 20
	refKernelCopies = 8000
	// refKernelNS is the kernel's quiet time on the reference box (2 vCPU
	// Xeon @ 2.1 GHz, both workers running it at once).
	refKernelNS = 5.5e6
)

// refKernel is one worker's private buffer, outside the Go heap so that it
// neither moves the collector's goal nor is moved by it.
type refKernel struct {
	buf []byte
	x   uint64
}

func newRefKernel(seed uint64) (*refKernel, error) {
	buf, err := syscall.Mmap(-1, 0, refKernelBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(buf); i += 4096 {
		buf[i] = byte(i >> 12) // fault every page in now, not under the clock
	}
	return &refKernel{buf: buf, x: seed}, nil
}

func (k *refKernel) close() { _ = syscall.Munmap(k.buf) }

// run does the fixed work and returns how long it took.
func (k *refKernel) run() int64 {
	t0 := time.Now()
	n := uint64(len(k.buf) / ioUnit)
	x := k.x
	for i := 0; i < refKernelCopies; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		a, b := (x>>33)%n*ioUnit, (x>>13)%n*ioUnit
		copy(k.buf[a:a+ioUnit], k.buf[b:b+ioUnit])
	}
	k.x = x
	return int64(time.Since(t0))
}

// machineSpeed turns kernel timings into the run's speed relative to the
// reference box: the quiet end of the timings, as for every other time.
func machineSpeed(kernelNS []float64) float64 {
	if k := quantileOf(kernelNS, quietTimeQ); k > 0 {
		return refKernelNS / k
	}
	return 1
}
