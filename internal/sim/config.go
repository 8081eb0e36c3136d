// Package sim is the experiment engine: it assembles a network, drives
// traffic generators or traces through warmup/measurement/drain phases,
// collects latency, throughput and blocking statistics, searches for
// saturation throughput, and analyzes congestion trees. Every table and
// figure of the paper is regenerated through this package.
package sim

import (
	"fmt"
	"slices"

	"nocsim/internal/network"
	"nocsim/internal/obs"
	"nocsim/internal/routing"
	"nocsim/internal/topo"
)

// Config holds the network parameters of one simulation, mirroring
// Table 2. The zero value is not usable; start from DefaultConfig.
type Config struct {
	Width, Height int
	// VCs per physical channel (Table 2 default: 10).
	VCs int
	// BufDepth is the per-VC buffer size in flits (Table 2: 4).
	BufDepth int
	// Speedup is the router's internal speedup (Table 2: 2).
	Speedup int
	// Algorithm names the routing algorithm (see routing.Names).
	Algorithm string
	// AlgFactory, when non-nil, overrides Algorithm with a custom
	// constructor — used by ablation studies to run parameterized
	// variants (e.g. a Footprint with a non-default threshold) that are
	// not in routing's table.
	AlgFactory func() routing.Algorithm
	// Seed drives every stochastic choice; equal seeds give identical
	// runs.
	Seed int64
	// SlowEndpoints maps node id -> consume interval for endpoints whose
	// ejection bandwidth is below port bandwidth, the second source of
	// endpoint congestion in Section 2 of the paper.
	SlowEndpoints map[int]int
	// Obs selects the observability collectors (lifecycle tracer,
	// counter sampler, link heatmap) attached to the run. The zero value
	// disables them all; the run hands its collector back as Result.Obs.
	Obs obs.Options
	// RunLabel names the run; Label reads it, with its fallback.
	RunLabel string
	// PprofLabels are extra (key, value) pairs attached to the run's
	// stepping goroutine as runtime/pprof labels, on top of the implicit
	// alg and run labels. Harnesses set the traffic pattern and
	// injection rate here so CPU/heap profiles attribute samples per
	// run. Display-only: never feeds results.
	PprofLabels []string
	// WatchdogCycles, when > 0, arms the stall watchdog: a window of
	// that many cycles with packets in flight but zero forward progress
	// captures a fabric snapshot (written to WatchdogOut) and summarizes
	// it to stderr.
	WatchdogCycles int64
	// WatchdogOut is the stall snapshot JSON path; see StallPath.
	WatchdogOut string

	// WarmupCycles run before measurement starts.
	WarmupCycles int64
	// MeasureCycles is the measurement window length.
	MeasureCycles int64
	// DrainCycles bounds the post-measurement drain phase in which
	// measured packets still in flight are awaited (traffic keeps
	// flowing). A saturated network will exhaust this bound.
	DrainCycles int64
}

// DefaultConfig returns the paper's baseline configuration: 8×8 mesh,
// 10 VCs with 4-flit buffers, speedup 2, Footprint routing.
func DefaultConfig() Config {
	return Config{
		Width: 8, Height: 8,
		VCs:       10,
		BufDepth:  4,
		Speedup:   2,
		Algorithm: "footprint",
		Seed:      1,

		WarmupCycles:  10000,
		MeasureCycles: 10000,
		DrainCycles:   50000,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if _, err := topo.New(c.Width, c.Height); err != nil {
		return fmt.Errorf("sim: invalid mesh: %v", err)
	}
	if c.VCs < 1 || c.VCs > network.MaxVCs {
		return fmt.Errorf("sim: need 1 to %d VCs, have %d", network.MaxVCs, c.VCs)
	}
	if c.BufDepth < 1 || c.BufDepth > network.MaxBufDepth {
		return fmt.Errorf("sim: need buffer depth 1 to %d, have %d", network.MaxBufDepth, c.BufDepth)
	}
	if c.Speedup < 1 {
		return fmt.Errorf("sim: need speedup >= 1, have %d", c.Speedup)
	}
	if c.Algorithm == "" && c.AlgFactory == nil {
		return fmt.Errorf("sim: no routing algorithm configured")
	}
	if c.WarmupCycles < 0 || c.MeasureCycles <= 0 || c.DrainCycles < 0 {
		return fmt.Errorf("sim: invalid phase lengths")
	}
	if c.WatchdogCycles < 0 {
		return fmt.Errorf("sim: negative watchdog window %d", c.WatchdogCycles)
	}
	if c.Obs.TraceCapacity > obs.MaxTraceCapacity {
		return fmt.Errorf("sim: trace capacity %d events is over the %d maximum", c.Obs.TraceCapacity, obs.MaxTraceCapacity)
	}
	// Ascending node order, so that of several bad entries the lowest is
	// the one named, on every call.
	nodes := make([]int, 0, len(c.SlowEndpoints))
	for node := range c.SlowEndpoints {
		nodes = append(nodes, node)
	}
	slices.Sort(nodes)
	for _, node := range nodes {
		if node < 0 || node >= c.Width*c.Height {
			return fmt.Errorf("sim: slow endpoint %d is not a node of the %dx%d mesh", node, c.Width, c.Height)
		}
		if interval := c.SlowEndpoints[node]; interval < 1 {
			return fmt.Errorf("sim: slow endpoint %d needs a consume interval >= 1, have %d", node, interval)
		}
	}
	return nil
}

// Label is the run's one name — in its pprof labels, its stall
// snapshot path (see RunIdentity.Apply) and the per-run tables and
// export files of the commands: RunLabel, else the algorithm name.
func (c Config) Label() string {
	if c.RunLabel != "" {
		return c.RunLabel
	}
	return algName(c)
}

// algName returns the config's algorithm name; AlgFactory-only configs
// (ablation variants outside routing's table) go by a fixed token.
func algName(cfg Config) string {
	if cfg.Algorithm != "" {
		return cfg.Algorithm
	}
	return "custom"
}

// StallPath returns the path the run's watchdog dumps its stall
// snapshot to: WatchdogOut, or "nocsim-stall.json" when that is empty.
func (c Config) StallPath() string {
	if c.WatchdogOut == "" {
		return "nocsim-stall.json"
	}
	return c.WatchdogOut
}

// Mesh returns the configured topology.
func (c Config) Mesh() topo.Mesh { return topo.MustNew(c.Width, c.Height) }
