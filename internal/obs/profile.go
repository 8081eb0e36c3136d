package obs

import (
	"fmt"
	"io"
	"runtime/metrics"
	"strings"
	"time"

	"nocsim/internal/flit"
	"nocsim/internal/network"
	"nocsim/internal/prof"
)

// This file is the cycle-loop performance profiler: a sampled phase
// probe that attributes wall time and heap-allocation deltas to the
// fabric's pipeline phases (route-compute, VC-alloc, switch-alloc,
// link-traversal, inject-eject). It instruments every Kth cycle, so the
// disabled path costs one nil check per cycle and the enabled path
// amortizes its clock and allocation-counter reads over the sampling
// period. Profiles are host-side self-metrics like RuntimeStats: they
// ride on the Result but never feed a simulated quantity, and the
// determinism goldens scrub them exactly like Runtime.

// DefaultProfileEvery is the default sampling period in cycles: small
// enough that a quick-profile run still lands tens of samples, large
// enough that the per-sample cost (a dozen clock reads and two
// runtime/metrics reads) amortizes below a percent of the loop.
const DefaultProfileEvery = 64

// PhaseStats aggregates one pipeline phase over all sampled cycles.
type PhaseStats struct {
	// Phase is the network.Phase name ("route-compute", ...).
	Phase string `json:"phase"`
	// Nanos is wall time spent in the phase across sampled cycles.
	Nanos int64 `json:"nanos"`
	// AllocBytes / Allocs are the heap-allocation deltas attributed to
	// the phase across sampled cycles (runtime/metrics /gc/heap/allocs).
	AllocBytes uint64 `json:"alloc_bytes"`
	Allocs     uint64 `json:"allocs"`
	// TimeShare is Nanos over the total sampled-cycle time (0-1).
	TimeShare float64 `json:"time_share"`
}

// GCStats is the run-level garbage-collection and heap-growth account,
// deltas of runtime.MemStats between run start and end.
type GCStats struct {
	// NumGC is the number of completed GC cycles during the run.
	NumGC uint32 `json:"num_gc"`
	// PauseTotalNanos is the stop-the-world pause time accumulated
	// during the run.
	PauseTotalNanos uint64 `json:"pause_total_nanos"`
	// HeapSysGrowthBytes is the growth of heap memory obtained from the
	// OS over the run (0 when the heap did not grow).
	HeapSysGrowthBytes uint64 `json:"heap_sys_growth_bytes"`
	// TotalAllocBytes / Mallocs mirror RuntimeStats' whole-run
	// allocation deltas so a profile is self-contained.
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	Mallocs         uint64 `json:"mallocs"`
}

// PerfProfile is one run's cycle-loop performance profile, attached to
// sim.Result when profiling is enabled. Like RuntimeStats it describes
// the host, not the fabric: determinism tests scrub it.
type PerfProfile struct {
	// SampleEvery is the sampling period in cycles.
	SampleEvery int64 `json:"sample_every"`
	// SampledCycles counts instrumented cycles; SampledNanos is their
	// total wall time.
	SampledCycles int64 `json:"sampled_cycles"`
	SampledNanos  int64 `json:"sampled_nanos"`
	// Phases holds one entry per pipeline phase, in pipeline order.
	Phases []PhaseStats `json:"phases"`
	// GC is the run-level collector account (filled by the simulation
	// from its run-boundary MemStats reads).
	GC GCStats `json:"gc"`
	// Arena is the fabric's flit/packet arena account at run end (filled
	// by the simulation): live/free/high-water slots and the
	// allocated-vs-reused split. Unlike the host metrics above it is
	// deterministic — the counters move only on fabric events.
	Arena *flit.ArenaStats `json:"arena,omitempty"`
}

// String renders the profile as a one-line phase breakdown.
func (p *PerfProfile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d sampled cycles (every %d):", p.SampledCycles, p.SampleEvery)
	for _, ph := range p.Phases {
		fmt.Fprintf(&b, " %s %.1f%%", ph.Phase, 100*ph.TimeShare)
	}
	return b.String()
}

// Format prints the profile as a table: one row per pipeline phase with
// its time, share and allocation columns, then the arena account.
func (p *PerfProfile) Format(w io.Writer) {
	fmt.Fprintf(w, "phase profile      %d sampled cycles (every %d), GC: %d cycles, %.1fms paused\n",
		p.SampledCycles, p.SampleEvery, p.GC.NumGC, float64(p.GC.PauseTotalNanos)/1e6)
	fmt.Fprintf(w, "%18s %10s %8s %12s %10s\n", "phase", "time", "share", "alloc", "allocs")
	for _, ph := range p.Phases {
		fmt.Fprintf(w, "%18s %9.2fms %7.1f%% %11.1fKB %10d\n",
			ph.Phase, float64(ph.Nanos)/1e6, 100*ph.TimeShare, float64(ph.AllocBytes)/1024, ph.Allocs)
	}
	if p.Arena != nil {
		fmt.Fprintf(w, "%18s %s\n", "arena", p.Arena)
	}
}

// heapAllocMetrics are the runtime/metrics samples the profiler reads at
// each phase boundary of a sampled cycle. Unlike runtime.ReadMemStats
// they do not stop the world, so per-phase reads stay cheap.
var heapAllocMetrics = [...]string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects"}

// PhaseProfiler implements network.PhaseProbe: it samples every Kth
// cycle and accumulates per-phase wall time and allocation deltas. It is
// driven from the simulation's stepping goroutine only, and Snapshot and
// Profile are read from that same goroutine.
type PhaseProfiler struct {
	every int64
	clock prof.Clock

	// Span state within the current sampled cycle.
	open       bool
	cur        network.Phase
	spanStart  time.Time
	spanBytes  uint64
	spanAllocs uint64

	sampled int64
	nanos   [network.NumPhases]int64
	bytes   [network.NumPhases]uint64
	allocs  [network.NumPhases]uint64

	samples    []metrics.Sample
	allocsOK   bool
	cycleStart time.Time
	totalNanos int64
}

// NewPhaseProfiler returns a profiler sampling every `every` cycles
// (DefaultProfileEvery when <= 0) using clock (prof.Now when nil).
func NewPhaseProfiler(every int64, clock prof.Clock) *PhaseProfiler {
	if every <= 0 {
		every = DefaultProfileEvery
	}
	p := &PhaseProfiler{every: every, clock: prof.Or(clock)}
	p.samples = make([]metrics.Sample, len(heapAllocMetrics))
	for i, name := range heapAllocMetrics {
		p.samples[i].Name = name
	}
	metrics.Read(p.samples)
	p.allocsOK = p.samples[0].Value.Kind() == metrics.KindUint64 &&
		p.samples[1].Value.Kind() == metrics.KindUint64
	return p
}

// readAllocs reads the cumulative heap allocation counters.
func (p *PhaseProfiler) readAllocs() (bytes, objects uint64) {
	if !p.allocsOK {
		return 0, 0
	}
	metrics.Read(p.samples)
	return p.samples[0].Value.Uint64(), p.samples[1].Value.Uint64()
}

// BeginCycle implements network.PhaseProbe: true every Kth cycle.
func (p *PhaseProfiler) BeginCycle(now int64) bool {
	if now%p.every != 0 {
		return false
	}
	p.cycleStart = p.clock()
	p.open = false
	return true
}

// BeginPhase implements network.PhaseProbe: closes the span of the
// previous phase and opens one for ph.
func (p *PhaseProfiler) BeginPhase(ph network.Phase) {
	t := p.clock()
	bytes, objects := p.readAllocs()
	if p.open {
		p.nanos[p.cur] += t.Sub(p.spanStart).Nanoseconds()
		p.bytes[p.cur] += bytes - p.spanBytes
		p.allocs[p.cur] += objects - p.spanAllocs
	}
	p.open = true
	p.cur = ph
	p.spanStart = t
	p.spanBytes = bytes
	p.spanAllocs = objects
}

// EndCycle implements network.PhaseProbe: closes the last span and
// finishes the sampled cycle.
func (p *PhaseProfiler) EndCycle() {
	t := p.clock()
	if p.open {
		bytes, objects := p.readAllocs()
		p.nanos[p.cur] += t.Sub(p.spanStart).Nanoseconds()
		p.bytes[p.cur] += bytes - p.spanBytes
		p.allocs[p.cur] += objects - p.spanAllocs
		p.open = false
	}
	p.totalNanos += t.Sub(p.cycleStart).Nanoseconds()
	p.sampled++
}

// SampleEvery returns the sampling period in cycles.
func (p *PhaseProfiler) SampleEvery() int64 { return p.every }

// Snapshot returns the per-phase aggregates so far, in pipeline order.
func (p *PhaseProfiler) Snapshot() []PhaseStats {
	out := make([]PhaseStats, network.NumPhases)
	var total int64
	for i := 0; i < network.NumPhases; i++ {
		total += p.nanos[i]
	}
	for i := 0; i < network.NumPhases; i++ {
		out[i] = PhaseStats{
			Phase:      network.Phase(i).String(),
			Nanos:      p.nanos[i],
			AllocBytes: p.bytes[i],
			Allocs:     p.allocs[i],
		}
		if total > 0 {
			out[i].TimeShare = float64(p.nanos[i]) / float64(total)
		}
	}
	return out
}

// Profile freezes the profiler into a PerfProfile (GC is filled by the
// caller from its run-boundary MemStats deltas).
func (p *PhaseProfiler) Profile() *PerfProfile {
	return &PerfProfile{
		SampleEvery:   p.every,
		SampledCycles: p.sampled,
		SampledNanos:  p.totalNanos,
		Phases:        p.Snapshot(),
	}
}

// compile-time seam check.
var _ network.PhaseProbe = (*PhaseProfiler)(nil)
