// Package nocsim is a cycle-accurate 2D-mesh network-on-chip simulator and
// a from-scratch reproduction of "Footprint: Regulating Routing
// Adaptiveness in Networks-on-Chip" (Fu & Kim, ISCA 2017).
//
// The package is the public face of the library: configure a simulation
// with Config, drive it with synthetic traffic patterns, trace files or
// custom injectors, and collect latency/throughput/blocking statistics.
// The Footprint routing algorithm and all of the paper's baselines (DOR,
// Odd-Even, DBAR, and their XORDET and VOQ_sw overlays) are built in; see
// Algorithms.
//
// Quick start:
//
//	cfg := nocsim.DefaultConfig()         // 8x8 mesh, 10 VCs, Footprint
//	res, err := nocsim.Run(cfg, "uniform", 0.3)
//	fmt.Println(res.AvgLatency(nocsim.ClassBackground))
//
// The experiment harnesses that regenerate every table and figure of the
// paper live in internal/exp and are exposed through the cmd/ tools and
// the repository-root benchmarks.
package nocsim

import (
	"fmt"

	"nocsim/internal/flit"
	"nocsim/internal/routing"
	"nocsim/internal/sim"
	"nocsim/internal/topo"
	"nocsim/internal/trace"
	"nocsim/internal/traffic"
)

// Config parameterizes one simulation; see DefaultConfig for the paper's
// Table 2 baseline.
type Config = sim.Config

// Result summarizes one simulation run.
type Result = sim.Result

// Simulation is a configured network plus its traffic injectors.
type Simulation = sim.Simulation

// Injector produces traffic cycle by cycle; traffic generators and trace
// players implement it.
type Injector = sim.Injector

// Class labels packets for per-class measurement.
type Class = flit.Class

// Packet measurement classes.
const (
	ClassBackground = flit.ClassBackground
	ClassHotspot    = flit.ClassHotspot
)

// Packet is one network message.
type Packet = flit.Packet

// DefaultConfig returns the paper's baseline configuration: 8×8 mesh,
// 10 VCs with 4-flit buffers, internal speedup 2, Footprint routing.
func DefaultConfig() Config { return sim.DefaultConfig() }

// Algorithms lists the available routing algorithms, sorted: "footprint",
// "dbar", "oddeven", "dor" and the "+xordet" and "+voqsw" overlays on the
// last three.
func Algorithms() []string { return routing.Names() }

// Patterns lists the built-in synthetic traffic patterns: "uniform",
// "transpose", "shuffle" and "bitcomp".
func Patterns() []string { return traffic.Names() }

// New assembles a simulation from cfg and injectors; use
// NewPatternInjector or NewTracePlayer to build injectors, or implement
// Injector yourself. Its Run recycles the fabric
// for later simulations of the process to build on, unless the
// simulation's Network was taken before Run: a caller that reads the
// fabric after the run takes Network first. Step, Run and Network panic
// on a simulation whose fabric was recycled.
func New(cfg Config, injectors ...Injector) (*Simulation, error) {
	return sim.New(cfg, injectors...)
}

// Run simulates cfg under the named synthetic pattern at the given
// offered load (flits/node/cycle) with single-flit packets and returns
// the measured result.
func Run(cfg Config, pattern string, rate float64) (*Result, error) {
	return RunSized(cfg, pattern, rate, 1, 1)
}

// RunSized is Run with packet sizes drawn uniformly from [minFlits,
// maxFlits].
func RunSized(cfg Config, pattern string, rate float64, minFlits, maxFlits int) (*Result, error) {
	inj, err := NewPatternInjector(cfg, pattern, rate, minFlits, maxFlits)
	if err != nil {
		return nil, err
	}
	if cfg.PprofLabels == nil {
		cfg.PprofLabels = []string{"traffic", pattern, "rate", fmt.Sprintf("%.3f", rate)}
	}
	s, err := sim.New(cfg, inj)
	if err != nil {
		return nil, err
	}
	return s.Run(), nil
}

// NewPatternInjector builds a Bernoulli injector of the named pattern at
// the given offered load with packet sizes uniform in [minFlits,
// maxFlits].
func NewPatternInjector(cfg Config, pattern string, rate float64, minFlits, maxFlits int) (Injector, error) {
	size, err := traffic.SizeRange(minFlits, maxFlits)
	if err != nil {
		return nil, err
	}
	return sim.PatternGenerator(cfg, pattern, size, rate)
}

// SweepPoint is one injection rate of a latency-throughput curve.
type SweepPoint = sim.SweepPoint

// LatencyThroughput sweeps injection rates (flits/node/cycle) and returns
// the latency-throughput curve of cfg under the named pattern with
// single-flit packets.
func LatencyThroughput(cfg Config, pattern string, rates []float64) ([]SweepPoint, error) {
	return sim.LatencyThroughput(cfg, pattern, traffic.FixedSize(1), rates, 0)
}

// SaturationResult reports a saturation-throughput search.
type SaturationResult = sim.SaturationResult

// SaturationThroughput bisects for the highest stable offered load of cfg
// under the named pattern, to within tol flits/node/cycle.
func SaturationThroughput(cfg Config, pattern string, tol float64) (*SaturationResult, error) {
	return sim.SaturationThroughput(cfg, pattern, traffic.FixedSize(1), tol)
}

// HotspotCurve runs cfg once per hotspot rate while the Table 3 hotspot
// flows inject at that rate over uniform background traffic; read each
// point's Result.AvgLatency(ClassBackground). cfg must describe an 8×8
// mesh.
func HotspotCurve(cfg Config, backgroundRate float64, hotspotRates []float64) ([]SweepPoint, error) {
	return sim.HotspotCurve(cfg, backgroundRate, hotspotRates, 0)
}

// TraceRecord is one packet of a trace file.
type TraceRecord = trace.Record

// NewTracePlayer returns an injector that replays records, honouring
// their cycles and dependencies. It serves one simulation: the Run that
// recycles the fabric recycles the player's dependency index too, so a
// second replay needs a new player.
func NewTracePlayer(records []TraceRecord) Injector { return trace.NewPlayer(records) }

// GeneratePARSEC synthesizes a trace modelled on the named PARSEC
// workload (see ParsecWorkloads) for cfg's mesh.
func GeneratePARSEC(cfg Config, workload string, cycles, seed int64) ([]TraceRecord, error) {
	w, err := trace.WorkloadByName(workload)
	if err != nil {
		return nil, err
	}
	return trace.Generate(w, cfg.Mesh(), cycles, seed), nil
}

// ParsecWorkloads lists the eight PARSEC workload models.
func ParsecWorkloads() []string {
	var names []string
	for _, w := range trace.Workloads() {
		names = append(names, w.Name)
	}
	return names
}

// MergeTraces interleaves traces, remapping IDs so dependencies stay
// intact; the paper pairs two PARSEC workloads this way.
func MergeTraces(traces ...[]TraceRecord) []TraceRecord { return trace.Merge(traces...) }

// PortAdaptiveness returns P_adapt (Equation 1 of the paper) of the named
// algorithm between two nodes of cfg's mesh.
func PortAdaptiveness(cfg Config, algorithm string, src, dest int) (float64, error) {
	alg, err := routing.New(algorithm)
	if err != nil {
		return 0, err
	}
	return routing.PortAdaptiveness(cfg.Mesh(), alg, src, dest), nil
}

// VCAdaptiveness returns VC_adapt (Equation 2) of the named algorithm for
// a non-escape channel with vcs virtual channels.
func VCAdaptiveness(algorithm string, vcs int) (float64, error) {
	alg, err := routing.New(algorithm)
	if err != nil {
		return 0, err
	}
	return routing.VCAdaptiveness(alg, vcs, false), nil
}

// FootprintCostBits returns the Section 4.4 storage overhead in bits per
// router port for a network of nodes endpoints and vcs VCs per channel.
func FootprintCostBits(nodes, vcs int) int {
	return routing.FootprintCost(nodes, vcs).TotalBitsPerPort
}

// Mesh returns the topology described by cfg; node ids are row-major.
func Mesh(cfg Config) topo.Mesh { return cfg.Mesh() }
