package main

import (
	"math/rand"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The end-to-end times are reported on a calibrated clock.
//
// On the shared 2-vCPU VM this benchmark was built on, the same binary on
// the same inputs runs up to 30 % slower for tens of seconds at a time,
// while an arithmetic loop stays within 4 %: the latency of memory
// beyond the private caches moves with what the host's other tenants do.
// The simulator is a pointer-chasing program, so its speed moves with
// it, and ten runs of one commit spread by 10-25 %.
//
// A dependent-load chase through 8 MB, too large for the L2 and at home
// in the L3, moves the same way. The untraced run therefore makes a
// fixed stretch of that chase right after each op, and scales its times
// by how much slower than nominalStepNs the chase ran over the whole run.
// README.md has what that bought on two sets of ten runs. The raw,
// unscaled values are printed beside the calibrated ones.

const (
	// calibNodes int32 slots are 8 MB.
	calibNodes = 1 << 21
	// nominalStepNs is the chase's usual speed on this box; it only fixes
	// the scale, so that calibrated and raw times agree when the host is
	// in its usual mode.
	nominalStepNs = 115.0
	// calibSteps is the length of one sample, about 12 ms. It is the
	// same after every op: a longer stretch comes back to cache lines
	// it has already touched and runs faster per step (75 ns at 400k
	// steps against 113 ns at 100k), so a length that followed the op's
	// duration would tie the clock to the program it is timing.
	calibSteps = 100_000
)

// calibrator is the reference chase. It is read-only once built, so the
// workers of a pool may sample it side by side.
type calibrator struct {
	next []int32
}

// newCalibrator lays one random cycle through all the slots (Sattolo's
// algorithm), so that no prefetcher can follow it. The slots are mapped
// outside the Go heap: inside it, 8 MB of live data would space out the
// garbage collections of a simulator whose own heap is a few MB, and the
// benchmark would time a collector its users do not get.
func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, calibNodes*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	next := unsafe.Slice((*int32)(unsafe.Pointer(&mem[0])), calibNodes)
	for i := range next {
		next[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := calibNodes - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	return &calibrator{next: next}, nil
}

// after makes one sample, starting at a slot that differs from op to op,
// and returns how long it took in ns.
func (c *calibrator) after(op int) int64 {
	p := int32(op * 7919 % calibNodes)
	t0 := time.Now()
	for i := 0; i < calibSteps; i++ {
		p = c.next[p]
	}
	ns := int64(time.Since(t0))
	runtime.KeepAlive(p)
	return ns
}

// slowdown is how much slower than nominal the chase ran over samples
// that took chaseNs together.
func slowdown(chaseNs int64, samples int) float64 {
	return float64(chaseNs) / float64(samples*calibSteps) / nominalStepNs
}
