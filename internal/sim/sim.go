package sim

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime/pprof"

	"nocsim/internal/flit"
	"nocsim/internal/network"
	"nocsim/internal/obs"
	"nocsim/internal/prof"
	"nocsim/internal/routing"
	"nocsim/internal/stats"
	"nocsim/internal/topo"
)

// Result summarizes one simulation run.
type Result struct {
	Config Config
	// Offered is the measured offered load in flits/node/cycle over the
	// measurement window.
	Offered float64
	// Accepted is the ejected-flit rate in flits/node/cycle over the
	// measurement window (all classes).
	Accepted float64
	// Latency aggregates packet latency (creation to tail ejection) of
	// measured packets, per traffic class.
	Latency map[flit.Class]*stats.Summary
	// P99 is the 99th-percentile latency of measured background packets.
	P99 float64
	// MeasuredEjected counts measured packets that completed; Measured
	// counts packets born in the window. Their gap indicates saturation.
	Measured, MeasuredEjected int64
	// Stable reports that every measured packet drained within the
	// drain budget — false means the network was saturated.
	Stable bool
	// Purity is the paper's purity of blocking (Figure 10b): per
	// VC-allocation failure, the footprint share of the busy VCs at the
	// requested port, averaged over failures. HoLDegree is impurity ×
	// blocking events per thousand measured packets (Figure 10c).
	// BlockEvents is the raw VC-allocation failure count.
	Purity      float64
	HoLDegree   float64
	BlockEvents int64
	// Runtime reports the simulator's own performance over the whole run
	// (warmup + measurement + drain).
	Runtime RuntimeStats
	// Stalled reports that the run's watchdog flagged at least one
	// zero-progress window (see Config.WatchdogCycles).
	Stalled bool
	// Obs is the run's observability collector (nil when Config.Obs is
	// disabled); experiment harnesses export its data per run.
	Obs *obs.Collector
	// Anatomy is the run's latency anatomy and exercised adaptiveness
	// (nil unless Config.Obs.Anatomy). It is a telemetry payload:
	// determinism goldens scrub it, and it must never feed back into
	// fabric behaviour.
	Anatomy *obs.Anatomy
}

// RuntimeStats are the simulator's self-metrics: how fast the host
// machine simulated the fabric.
type RuntimeStats struct {
	// WallSeconds is the host wall-clock time of the run.
	WallSeconds float64
	// Cycles is the number of fabric cycles stepped.
	Cycles int64
	// CyclesPerSec is Cycles / WallSeconds.
	CyclesPerSec float64
	// FlitHops counts every flit sent through every router output port
	// (cardinal links and ejection links) — the fabric's total transport
	// work.
	FlitHops int64
	// FlitHopsPerSec is FlitHops / WallSeconds.
	FlitHopsPerSec float64
}

// String renders the self-metrics as a one-line report.
func (rs RuntimeStats) String() string {
	return fmt.Sprintf("%d cycles in %.2fs (%.0f cycles/s, %.0f flit-hops/s)",
		rs.Cycles, rs.WallSeconds, rs.CyclesPerSec, rs.FlitHopsPerSec)
}

// AvgLatency returns the mean latency of measured packets of class c.
func (r *Result) AvgLatency(c flit.Class) float64 {
	s, ok := r.Latency[c]
	if !ok || s.N() == 0 {
		return 0
	}
	return s.Mean()
}

// Injector produces traffic cycle by cycle. traffic.Generator is the
// synthetic implementation; trace players implement it too. An injector
// serves one simulation: one that implements Recycler gives up its
// per-run memory when that simulation's Run recycles the fabric.
type Injector interface {
	// Init prepares the injector for mesh m with the simulation's RNG.
	Init(m topo.Mesh, rng *rand.Rand)
	// Tick emits this cycle's packets through offer, with Born set to
	// now.
	Tick(now int64, offer func(*flit.Packet))
}

// EjectObserver is implemented by injectors that need packet completion
// notifications (e.g. dependency-tracking trace players).
type EjectObserver interface {
	OnEject(p *flit.Packet)
}

// MeshChecker is implemented by injectors whose input may not fit the
// mesh (trace.Player does: a trace names its endpoints). New calls
// CheckMesh before Init and returns its error, so an unfit input is an
// error rather than a panic in Init.
type MeshChecker interface {
	CheckMesh(m topo.Mesh) error
}

// Recycler is implemented by injectors that hold per-run memory a later
// injector can build on (trace.Player does: its dependency index). Run
// calls Recycle on each injector when, and only when, it recycles the
// fabric: after the last cycle, and never when Network was taken, since
// the caller may then go on stepping (DESIGN.md, "Recycling").
type Recycler interface {
	Recycle()
}

// ArenaUser is implemented by injectors that can allocate their packets
// from the network's arena instead of the heap (traffic.Generator and
// trace.Player do); the simulation hands them the arena at construction
// and the endpoints recycle the packets at ejection.
type ArenaUser interface {
	UseArena(a *flit.Arena)
}

// Simulation drives one network through the measurement phases.
type Simulation struct {
	cfg Config
	// net is built on fab, which Run hands back to the pool for the next
	// New unless Network took the fabric (kept); net is nil from then on.
	net  *network.Network
	fab  *fabric
	kept bool
	gens []Injector
	met  *metrics
	col  *obs.Collector // nil unless cfg.Obs selects collectors

	nextID uint64
	// offerFn is s.offer, bound once so that a cycle makes no closure.
	offerFn   func(*flit.Packet)
	measuring bool
	measStart int64
	measEnd   int64
	// blockedInWindow is the fabric's Sinks.Blocked during the measurement
	// window — met, behind the tracer when tracing — and blockedOutside on
	// every other cycle: the tracer alone, or nil.
	blockedInWindow, blockedOutside network.BlockedSink

	measured        int64
	measuredEjected int64
	offeredFlits    int64 // flits offered during the measurement window
	ejectedFlits    int64 // flits ejected during the measurement window

	// The stall watchdog, beaten every beatEvery cycles; both are zero
	// unless cfg.WatchdogCycles arms it.
	beatEvery int64
	wd        *obs.Watchdog
	stalled   bool

	latency map[flit.Class]*stats.Summary

	observers []EjectObserver
}

// New assembles a simulation from a validated config and its traffic
// injectors. Injectors must not be shared between simulations, nor used
// again after its Run: Run recycles what a Recycler holds. The fabric is
// built on the memory of a finished run when the pool holds one, which
// gives the run a new fabric would (DESIGN.md, "Recycling").
func New(cfg Config, gens ...Injector) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var alg routing.Algorithm
	if cfg.AlgFactory != nil {
		alg = cfg.AlgFactory()
	} else {
		var err error
		if alg, err = routing.New(cfg.Algorithm); err != nil {
			return nil, err
		}
	}
	if cfg.VCs < 2 && alg.UsesEscape() {
		return nil, fmt.Errorf("sim: %s reserves VC 0 as its escape channel and needs at least 2 VCs, have %d",
			algName(cfg), cfg.VCs)
	}
	mesh := cfg.Mesh()
	for _, g := range gens {
		if mc, ok := g.(MeshChecker); ok {
			if err := mc.CheckMesh(mesh); err != nil {
				return nil, err
			}
		}
	}
	fab := takeFabric(mesh.Nodes())
	fab.rng.Seed(cfg.Seed)
	fab.hist.Reset()
	rng := fab.rng
	s := &Simulation{
		cfg:     cfg,
		fab:     fab,
		met:     &metrics{},
		col:     obs.NewCollector(cfg.Obs),
		latency: map[flit.Class]*stats.Summary{},
	}
	// The simulator's own metrics consume only the failure event, and only
	// inside the measurement window: the fabric starts with the sinks of
	// the cycles outside it and Run swaps Blocked at the window's edges.
	// The observability collectors add themselves to the fields they
	// consume, in both.
	var sinks network.Sinks
	s.col.Attach(&sinks)
	window := network.Sinks{Blocked: s.met}
	s.col.Attach(&window)
	s.blockedOutside, s.blockedInWindow = sinks.Blocked, window.Blocked
	s.net = network.New(network.Config{
		Mesh:          cfg.Mesh(),
		VCs:           cfg.VCs,
		BufDepth:      cfg.BufDepth,
		Speedup:       cfg.Speedup,
		Alg:           alg,
		Rand:          rng,
		Sinks:         sinks,
		SlowEndpoints: cfg.SlowEndpoints,
	}, &fab.net)
	s.net.Sink = s.onEject
	s.offerFn = s.offer
	if cfg.WatchdogCycles > 0 {
		s.beatEvery = max(1, min(128, cfg.WatchdogCycles/4))
		s.wd = obs.NewWatchdog(cfg.WatchdogCycles, func() *obs.FabricSnapshot {
			return obs.Capture(s.net)
		})
	}
	for _, g := range gens {
		g.Init(mesh, rng)
		if au, ok := g.(ArenaUser); ok {
			au.UseArena(s.net.Arena())
		}
		s.gens = append(s.gens, g)
		if obs, ok := g.(EjectObserver); ok {
			s.observers = append(s.observers, obs)
		}
	}
	return s, nil
}

// MustNew is New but panics on error; for tests and fixed-config tools.
func MustNew(cfg Config, gens ...Injector) *Simulation {
	s, err := New(cfg, gens...)
	if err != nil {
		panic(err)
	}
	return s
}

// Network exposes the underlying fabric for analyzers. Taking it keeps
// the fabric: Run then leaves it readable, and does not recycle it.
func (s *Simulation) Network() *network.Network {
	s.mustHoldFabric("Network")
	s.kept = true
	return s.net
}

// mustHoldFabric panics when Run has recycled the simulation's fabric.
func (s *Simulation) mustHoldFabric(method string) {
	if s.net == nil {
		panic("sim: " + method + " after Run: Run recycles the fabric of a simulation whose Network() was not taken before it")
	}
}

// onEject collects statistics for packets completing at their destination.
func (s *Simulation) onEject(p *flit.Packet) {
	if s.measuring && p.Born >= s.measStart && p.Born < s.measEnd {
		s.measuredEjected++
		sum, ok := s.latency[p.Class]
		if !ok {
			sum = &stats.Summary{}
			s.latency[p.Class] = sum
		}
		sum.Add(float64(p.Latency()))
		if p.Class == flit.ClassBackground {
			s.fab.hist.Add(p.Latency())
		}
	}
	if s.measuring && s.net.Now() >= s.measStart && s.net.Now() < s.measEnd {
		s.ejectedFlits += int64(p.Size)
	}
	for _, obs := range s.observers {
		obs.OnEject(p)
	}
}

// Step advances the simulation one cycle — traffic generation followed by
// one fabric cycle — without any measurement phase bookkeeping. Analyzers
// that sample network state (e.g. congestion trees) drive the simulation
// with it. It panics after a Run that recycled the fabric.
func (s *Simulation) Step() {
	s.mustHoldFabric("Step")
	s.step()
}

// step advances one cycle, generating traffic first.
func (s *Simulation) step() {
	now := s.net.Now()
	if s.col != nil {
		s.col.Tick(now, s.net)
	}
	if s.beatEvery > 0 && now%s.beatEvery == 0 {
		s.heartbeat(now)
	}
	for _, g := range s.gens {
		g.Tick(now, s.offerFn)
	}
	s.net.Step()
}

// offer numbers a generated packet, counts it when it is born inside the
// measurement window, and queues it at its source.
func (s *Simulation) offer(p *flit.Packet) {
	s.nextID++
	p.ID = s.nextID
	if now := s.net.Now(); s.measuring && now >= s.measStart && now < s.measEnd {
		s.measured++
		s.offeredFlits += int64(p.Size)
	}
	s.net.Offer(p)
}

// heartbeat feeds the stall watchdog; on the beat that completes a
// zero-progress window it marks the run stalled, dumps the fabric
// snapshot and summarizes it to stderr.
func (s *Simulation) heartbeat(now int64) {
	rep := s.wd.Beat(now, s.net.InFlight(), s.net.TotalOutputFlits())
	if rep == nil {
		return
	}
	s.stalled = true
	path := s.cfg.StallPath()
	if err := rep.Dump(path); err != nil {
		fmt.Fprintln(os.Stderr, "sim: watchdog dump:", err)
	} else {
		fmt.Fprintf(os.Stderr, "sim: watchdog snapshot written to %s\n", path)
	}
	fmt.Fprintln(os.Stderr, rep.Summary())
}

// pprofLabels builds the run's runtime/pprof label set: the routing
// algorithm, the run label, and any (key, value) pairs the harness
// attached through Config.PprofLabels (traffic pattern, injection rate).
// CPU and heap profiles then attribute every sample to its run.
func (s *Simulation) pprofLabels() pprof.LabelSet {
	kv := []string{"alg", algName(s.cfg), "run", s.cfg.Label()}
	if n := len(s.cfg.PprofLabels); n >= 2 {
		kv = append(kv, s.cfg.PprofLabels[:n-n%2]...)
	}
	return pprof.Labels(kv...)
}

// Run executes warmup, measurement and drain, returning the aggregated
// result. Unless Network was called before it, Run then recycles the
// fabric, and with it the memory of every injector that is a Recycler,
// and New builds a later simulation on that memory: the Result points
// into none of it, and Step, Run and Network panic from then on. A
// caller that reads the fabric after the run takes Network first.
func (s *Simulation) Run() *Result {
	s.mustHoldFabric("Run")
	wall0 := prof.Now()
	startCycle := s.net.Now()

	pprof.Do(context.Background(), s.pprofLabels(), func(context.Context) {
		for i := int64(0); i < s.cfg.WarmupCycles; i++ {
			s.step()
		}
		s.met.reset()
		s.net.SetBlockedSink(s.blockedInWindow)
		s.measuring = true
		s.measStart = s.net.Now()
		s.measEnd = s.measStart + s.cfg.MeasureCycles
		if s.col != nil {
			s.col.OpenWindow(s.net, s.cfg.Mesh(), s.measStart, s.measEnd)
		}
		for i := int64(0); i < s.cfg.MeasureCycles; i++ {
			s.step()
		}
		s.net.SetBlockedSink(s.blockedOutside)
		if s.col != nil {
			s.col.CloseWindow(s.net)
		}
		// Drain: keep the offered load flowing so the backpressure seen
		// by measured packets persists, until every measured packet has
		// ejected or the drain budget runs out.
		for i := int64(0); i < s.cfg.DrainCycles && s.measuredEjected < s.measured; i++ {
			s.step()
		}
	})
	s.measuring = false

	wall := prof.Now().Sub(wall0).Seconds()
	ranCycles := s.net.Now() - startCycle
	hops := s.net.TotalOutputFlits()
	rt := RuntimeStats{
		WallSeconds:    wall,
		Cycles:         ranCycles,
		CyclesPerSec:   stats.Ratio(float64(ranCycles), wall),
		FlitHops:       hops,
		FlitHopsPerSec: stats.Ratio(float64(hops), wall),
	}

	nodes := float64(s.cfg.Mesh().Nodes())
	cycles := float64(s.cfg.MeasureCycles)
	res := &Result{
		Config:          s.cfg,
		Offered:         float64(s.offeredFlits) / nodes / cycles,
		Accepted:        float64(s.ejectedFlits) / nodes / cycles,
		Latency:         s.latency,
		P99:             s.fab.hist.Quantile(0.99),
		Measured:        s.measured,
		MeasuredEjected: s.measuredEjected,
		Stable:          s.measuredEjected >= s.measured,
		Purity:          s.met.purity(),
		BlockEvents:     s.met.blockEvents,
		Runtime:         rt,
		Stalled:         s.stalled,
		Obs:             s.col,
	}
	if s.measured > 0 {
		res.HoLDegree = s.met.holDegree() / float64(s.measured) * 1000
	}
	if s.col != nil {
		if s.col.Anatomy != nil {
			res.Anatomy = s.col.Anatomy.Aggregate()
		}
		if s.col.Tracer != nil {
			// Ring overflow silently truncates the lifecycle record; make
			// the loss visible so trace-derived analyses are not trusted
			// over a partial window.
			if d := s.col.Tracer.Dropped(); d > 0 {
				fmt.Fprintf(os.Stderr,
					"sim: warning: trace ring overflowed — %d of %d lifecycle events dropped (raise the trace capacity)\n",
					d, s.col.Tracer.Total())
			}
		}
		if s.col.Sampler != nil {
			if d := s.col.Sampler.Dropped(); d > 0 {
				fmt.Fprintf(os.Stderr,
					"sim: warning: counter series truncated — %d of %d router-samples dropped (the series keeps the first %d)\n",
					d, d+obs.DefaultSampleRows, obs.DefaultSampleRows)
			}
		}
	}
	if !s.kept {
		for _, g := range s.gens {
			if r, ok := g.(Recycler); ok {
				r.Recycle()
			}
		}
		fabrics.Put(s.fab)
		s.net, s.fab, s.gens = nil, nil, nil
	}
	return res
}
