package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestJobsNormalization(t *testing.T) {
	if got := Jobs(0); got != runtime.NumCPU() {
		t.Errorf("Jobs(0) = %d, want one per CPU, %d", got, runtime.NumCPU())
	}
	if got := Jobs(-3); got != runtime.NumCPU() {
		t.Errorf("Jobs(-3) = %d, want one per CPU, %d", got, runtime.NumCPU())
	}
	if got := Jobs(5); got != 5 {
		t.Errorf("Jobs(5) = %d", got)
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(4, 0, func(int) (int, error) { return 0, nil })
	if out != nil || err != nil {
		t.Errorf("Map(n=0) = %v, %v", out, err)
	}
}

func TestMapPreservesOrder(t *testing.T) {
	for _, jobs := range []int{1, 2, 8, 200} {
		out, err := Map(jobs, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if len(out) != 100 {
			t.Fatalf("jobs=%d: len = %d", jobs, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("jobs=%d: out[%d] = %d, want %d", jobs, i, v, i*i)
			}
		}
	}
}

// TestMapBoundedConcurrency holds every worker at a barrier and checks
// that exactly jobs calls run at once — neither fewer (the pool must use
// all its workers) nor more (the bound must hold).
func TestMapBoundedConcurrency(t *testing.T) {
	const jobs, n = 4, 32
	var cur, peak atomic.Int64
	release := make(chan struct{})
	var once sync.Once
	_, err := Map(jobs, n, func(i int) (int, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		if c == jobs {
			once.Do(func() { close(release) }) // all workers arrived once
		}
		<-release
		cur.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got != jobs {
		t.Errorf("peak concurrency = %d, want %d", got, jobs)
	}
}

func TestMapSerialStopsAtFirstError(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("boom")
	_, err := Map(1, 10, func(i int) (int, error) {
		calls.Add(1)
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("serial Map ran %d calls after error at index 3", got)
	}
}

// TestMapReturnsLowestFailingIndex checks the deterministic error
// choice: among the calls that actually ran and failed, the error of the
// lowest index is returned.
func TestMapReturnsLowestFailingIndex(t *testing.T) {
	const jobs, n = 8, 64
	var mu sync.Mutex
	failedIdx := map[int]bool{}
	_, err := Map(jobs, n, func(i int) (int, error) {
		mu.Lock()
		failedIdx[i] = true
		mu.Unlock()
		return 0, fmt.Errorf("err-%d", i)
	})
	if err == nil {
		t.Fatal("no error returned")
	}
	min := -1
	for i := range failedIdx {
		if min < 0 || i < min {
			min = i
		}
	}
	if want := fmt.Sprintf("err-%d", min); err.Error() != want {
		t.Errorf("err = %v, want %s (lowest failing index that ran)", err, want)
	}
}

// TestMapDrainsInFlight checks that Map does not return while calls are
// still executing after a failure — every started call finishes first.
func TestMapDrainsInFlight(t *testing.T) {
	const jobs, n = 4, 16
	var started, finished atomic.Int64
	boom := errors.New("boom")
	_, err := Map(jobs, n, func(i int) (int, error) {
		started.Add(1)
		defer finished.Add(1)
		if i == 0 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if s, f := started.Load(), finished.Load(); s != f {
		t.Errorf("Map returned with %d of %d started calls unfinished", s-f, s)
	}
}

func TestDeriveSeed(t *testing.T) {
	// Pinned values: changing the derivation silently invalidates every
	// recorded sweep, so it must fail a test first.
	golden := []struct {
		base int64
		key  string
		want int64
	}{
		{1, "load/uniform/rate=0.300000", 7431459433761795636},
		{1, "hotspot/bg=0.300000/hot=0.450000", -4593744453744409473},
		{42, "figure2", -6288767475748206889},
	}
	for _, g := range golden {
		if got := DeriveSeed(g.base, g.key); got != g.want {
			t.Errorf("DeriveSeed(%d, %q) = %d, want %d", g.base, g.key, got, g.want)
		}
	}
	if DeriveSeed(1, "a") == DeriveSeed(1, "b") {
		t.Error("distinct identities collided")
	}
	if DeriveSeed(1, "a") == DeriveSeed(2, "a") {
		t.Error("distinct base seeds collided")
	}
}

func TestIdentifyApply(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 7
	id := Identify(cfg, "curve rate=0.300", "load/uniform/rate=0.300000")
	if id.Label != "curve rate=0.300" {
		t.Errorf("label = %q", id.Label)
	}
	if id.Seed != DeriveSeed(7, "load/uniform/rate=0.300000") {
		t.Errorf("seed = %d", id.Seed)
	}

	applied := id.Apply(cfg)
	if applied.Label() != id.Label || applied.Seed != id.Seed {
		t.Errorf("Apply: label %q seed %d", applied.Label(), applied.Seed)
	}
	// Apply works on a copy; the shared base config is untouched, and an
	// unlabelled run goes by its algorithm ("custom" without a name).
	if cfg.Label() != "footprint" || cfg.Seed != 7 {
		t.Errorf("base config mutated: label %q seed %d", cfg.Label(), cfg.Seed)
	}
	if anon := (Config{}); anon.Label() != "custom" {
		t.Errorf("unnamed algorithm: label %q, want custom", anon.Label())
	}
	// Watchdog disarmed: no snapshot path is invented.
	if applied.WatchdogOut != "" {
		t.Errorf("WatchdogOut = %q with watchdog off", applied.WatchdogOut)
	}

	cfg.WatchdogCycles = 1000
	armed := id.Apply(cfg)
	if armed.WatchdogOut != "nocsim-stall_curve-rate-0.300.json" {
		t.Errorf("default watchdog path = %q", armed.WatchdogOut)
	}
	cfg.WatchdogOut = "dumps/stall.json"
	custom := id.Apply(cfg)
	if custom.WatchdogOut != "dumps/stall_curve-rate-0.300.json" {
		t.Errorf("custom watchdog path = %q", custom.WatchdogOut)
	}
}
