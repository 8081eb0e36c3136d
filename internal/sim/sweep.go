package sim

import (
	"fmt"

	"nocsim/internal/flit"
	"nocsim/internal/traffic"
)

// SweepPoint is one injection rate of a latency-throughput curve.
type SweepPoint struct {
	Rate   float64
	Result *Result
}

// LatencyThroughput produces one latency-throughput curve (the building
// block of Figures 5, 6 and 7): cfg is run once per rate with the named
// synthetic pattern and packet-size distribution, on up to jobs workers
// (0 = one per CPU). Every rate point is an independent RunLoad with its
// own Config copy and derived seed, so the curve is bit-identical at any
// jobs value.
func LatencyThroughput(cfg Config, pattern string, size traffic.SizeFn, rates []float64, jobs int) ([]SweepPoint, error) {
	return Map(jobs, len(rates), func(i int) (SweepPoint, error) {
		res, err := RunLoad(cfg, pattern, size, rates[i])
		if err != nil {
			return SweepPoint{}, err
		}
		return SweepPoint{Rate: rates[i], Result: res}, nil
	})
}

// loadIdentity derives the identity of one rate point of a sweep: the
// label is the run's Label tagged with the injection rate — bisection
// searches pick rates dynamically, so the rate part cannot be
// pre-assigned — while the seed key is the canonical (pattern, rate)
// traffic cell. The key is independent of display decoration, so
// relabelling never changes results, and deliberately excludes the
// routing algorithm, so the curves of a figure compare algorithms on
// identical offered traffic (each run still owns a private RNG seeded
// from the key).
func loadIdentity(cfg Config, pattern string, rate float64) RunIdentity {
	return Identify(cfg,
		fmt.Sprintf("%s rate=%.3f", cfg.Label(), rate),
		fmt.Sprintf("load/%s/rate=%.6f", pattern, rate))
}

// PatternGenerator builds the Bernoulli generator of the named pattern on
// cfg's mesh at the given offered load. It is where a traffic cell named
// by user input is checked: an invalid cfg, a pattern that is unknown or
// not defined on the mesh, and a load outside 0..1 are errors here, so
// none of them can reach a constructor that panics.
func PatternGenerator(cfg Config, pattern string, size traffic.SizeFn, rate float64) (*traffic.Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p, err := traffic.ByName(pattern, cfg.Mesh())
	if err != nil {
		return nil, err
	}
	if err := traffic.CheckRate(rate); err != nil {
		return nil, err
	}
	return &traffic.Generator{Pattern: p, Rate: rate, Size: size}, nil
}

// RunLoad is the one pattern-cell runner: one simulation of cfg under
// the named pattern at the given offered load, under the cell's derived
// identity (see loadIdentity). The identity is applied to a private
// Config copy — the caller's cfg is never mutated, which is what makes
// fanning RunLoad out over a worker pool safe.
func RunLoad(cfg Config, pattern string, size traffic.SizeFn, rate float64) (*Result, error) {
	gen, err := PatternGenerator(cfg, pattern, size, rate)
	if err != nil {
		return nil, err
	}
	cfg = loadIdentity(cfg, pattern, rate).Apply(cfg)
	cfg.PprofLabels = []string{"traffic", pattern, "rate", fmt.Sprintf("%.3f", rate)}
	s, err := New(cfg, gen)
	if err != nil {
		return nil, err
	}
	return s.Run(), nil
}

// The saturation criterion Saturated applies.
const (
	saturationLatencyFactor = 3    // mean latency over zero-load latency
	saturationAcceptRatio   = 0.95 // accepted over offered load
)

// Saturated reports whether res is saturated against the zero-load
// latency reference, by the one criterion used throughout the
// repository: the run is unstable, accepts less than 95% of its offered
// load, or its mean latency is over 3 times the zero-load latency.
func Saturated(res *Result, zeroLoadLatency float64) bool {
	if !res.Stable {
		return true
	}
	if res.Offered > 0 && res.Accepted < saturationAcceptRatio*res.Offered {
		return true
	}
	return res.AvgLatency(flit.ClassBackground) > saturationLatencyFactor*zeroLoadLatency
}

// SaturationResult reports a saturation-throughput search.
type SaturationResult struct {
	// Throughput is the highest stable offered load found, in
	// flits/node/cycle.
	Throughput float64
	// Runs holds every simulation performed, in order: the zero-load
	// probe first, whose background latency is the reference Saturated
	// judges against, then each bisection step.
	Runs []*Result
}

// probeRate is the low load used to establish the zero-load latency.
const probeRate = 0.05

// SaturationThroughput bisects for the network saturation throughput of
// cfg under the named pattern: the largest offered load that stays stable
// under the saturation criterion (Saturated), resolved to within tol flits/node/cycle
// (the figures use 0.01). A bisection is inherently sequential — each
// probe's rate depends on the previous verdict — so grids of searches
// parallelize across cells (see exp.Figure7/Figure8), not within one.
func SaturationThroughput(cfg Config, pattern string, size traffic.SizeFn, tol float64) (*SaturationResult, error) {
	if tol <= 0 {
		return nil, fmt.Errorf("sim: tolerance must be positive")
	}
	sr := &SaturationResult{}

	probe, err := RunLoad(cfg, pattern, size, probeRate)
	if err != nil {
		return nil, err
	}
	sr.Runs = append(sr.Runs, probe)
	if probe.Measured == 0 {
		// Nothing offered means nothing can saturate: the bisection
		// would walk to its upper bound and report that as a throughput.
		return nil, fmt.Errorf("sim: the probe run at load %.2f measured no packet, so there is no latency to bisect against", probeRate)
	}
	zero := probe.AvgLatency(flit.ClassBackground)
	if Saturated(probe, zero) {
		// Even the probe load saturates (cannot happen in practice for
		// the evaluated configurations; be defensive).
		sr.Throughput = 0
		return sr, nil
	}

	lo, hi := probeRate, 1.0
	for hi-lo > tol {
		mid := (lo + hi) / 2
		res, err := RunLoad(cfg, pattern, size, mid)
		if err != nil {
			return nil, err
		}
		sr.Runs = append(sr.Runs, res)
		if Saturated(res, zero) {
			hi = mid
		} else {
			lo = mid
		}
	}
	sr.Throughput = lo
	return sr, nil
}
