package sim

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"

	"nocsim/internal/obs"
)

// This file is the parallel run-execution engine. Every grid-shaped
// experiment of the paper — a latency-throughput curve, a saturation
// bisection per cell, a hotspot ramp, a trace pair — is a set of
// independent simulations, so the harnesses fan them out through Map
// onto a bounded worker pool and collect results in submission order.
//
// Parallelism is only safe because run identity is explicit: each run
// gets its own Config copy carrying a per-run label, a per-run seed
// derived by DeriveSeed (never shared RNG state), and a per-run
// watchdog snapshot path. Equal base seeds therefore give bit-identical
// results at any worker count; the determinism tests in
// determinism_test.go hold this invariant for every routing algorithm.
//
// Sharing rule: the workers of a Map share the index counter, the stop
// flag and the result and error slices (each element written by the one
// worker that drew its index), nothing else; a Config is plain data
// (TestConfigIsPlainData in internal/exp), so a run's copy is private.

// Jobs normalizes a worker count: n if positive, else one per CPU.
func Jobs(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// Map runs f(0), …, f(n-1) on up to jobs workers (Jobs-normalized) and
// returns the results in index order. On failure it returns the error
// of the lowest-indexed failing call — a deterministic choice — after
// draining the calls already in flight; calls not yet started are
// skipped. f must be safe for concurrent invocation with distinct
// indices.
func Map[T any](jobs, n int, f func(int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	jobs = Jobs(jobs)
	if jobs > n {
		jobs = n
	}
	out := make([]T, n)
	if jobs == 1 {
		for i := 0; i < n; i++ {
			v, err := f(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, n)
	var next int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n || failed.Load() {
					return
				}
				v, err := f(i)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					continue
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DeriveSeed hashes a base seed and a run-identity string into a
// per-run seed (FNV-1a). Runs of a grid never share RNG state or a raw
// seed: each cell's stream is independent, yet fully determined by the
// base seed and the cell's identity — the foundation of the engine's
// "equal seeds give identical results at any -jobs" guarantee.
func DeriveSeed(base int64, identity string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(base))
	h.Write(b[:])
	h.Write([]byte(identity))
	return int64(h.Sum64())
}

// RunIdentity pins one run of an experiment grid: the label naming it
// in profiles and stall dumps and the derived seed driving its RNG.
// Harnesses compute it per cell before fanning out, so a shared base
// Config is never mutated across goroutines.
type RunIdentity struct {
	Label string
	Seed  int64
}

// Identify builds a run identity under base config cfg: label names the
// run for display; seedKey is the canonical cell identity fed to
// DeriveSeed (kept separate from the label so display decoration never
// changes results).
func Identify(cfg Config, label, seedKey string) RunIdentity {
	return RunIdentity{Label: label, Seed: DeriveSeed(cfg.Seed, seedKey)}
}

// Apply stamps the identity onto its own copy of cfg: run label, derived
// seed, and — when the watchdog is armed — a per-run snapshot path, so
// concurrent runs never clobber one another's stall dumps.
func (id RunIdentity) Apply(cfg Config) Config {
	cfg.RunLabel = id.Label
	cfg.Seed = id.Seed
	if cfg.WatchdogCycles > 0 {
		cfg.WatchdogOut = obs.SuffixPath(cfg.StallPath(), id.Label)
	}
	return cfg
}
