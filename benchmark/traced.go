package main

import (
	"fmt"
	"time"

	"nocsim"
	"nocsim/internal/flit"
	"nocsim/internal/sim"
)

// The traced run gives the per-layer numbers. Every span and counter is
// taken from this package's own files: a phase probe on the network's
// public Probe seam, a timing decorator around each injector, clock
// reads around sim.New and Run, and the routers' and arena's public
// counters read after the run.

// Kinds of aggregate span under an op's Run span.
const (
	kindCycle = iota
	kindWorklist
	kindPhase0 // + network.Phase
	kindTick   = kindPhase0 + numPhases
	numKinds   = kindTick + 1
)

// sampler keeps the raw spans of one cycle in sampleEvery of one op. A
// raw span's parent holds its kind until the op ends and the aggregate
// spans it belongs under exist.
type sampler struct {
	spans []span
}

// opLayer is what the traced pass measured on one op.
type opLayer struct {
	outcome      opOutcome
	newNs, runNs int64
	probe        *phaseProbe
	tickNs       int64
	ticks        int64
	router       routerCounts
	arena        flit.ArenaStats
	// latency is the mean latency of measured background packets and
	// accepted the ejected flit rate: simulated time, so exact.
	latency, accepted float64
}

// execTraced is the traced counterpart of execPublic: it rebuilds the op
// from its replica with sim.New, so that it holds the Simulation, and
// runs it under the probe, recording its spans in tree. parent is the
// pass's span.
func execTraced(tree *spanTree, o *op, parent int32) (out opLayer) {
	lane := tree.takeLane()
	defer tree.releaseLane(lane)
	opSpan := tree.begin("op "+o.label, parent, lane)
	start := sinceStart()
	defer func() {
		if p := recover(); p != nil {
			out = opLayer{outcome: failedOutcome(o.label, fmt.Errorf("panic: %v", p))}
		}
		out.outcome.start = start
		tree.finish(opSpan)
	}()

	cfg, injectors, err := o.replica()
	if err != nil {
		return opLayer{outcome: failedOutcome(o.label, err)}
	}
	smp := &sampler{}
	timed := make([]*timedInjector, len(injectors))
	wrapped := make([]nocsim.Injector, len(injectors))
	for i, inj := range injectors {
		timed[i] = &timedInjector{inner: inj, smp: smp}
		wrapped[i] = timed[i]
	}

	newSpan := tree.begin("sim.New", opSpan, lane)
	s, err := sim.New(cfg, wrapped...)
	out.newNs = tree.finish(newSpan)
	if err != nil {
		return opLayer{outcome: failedOutcome(o.label, err)}
	}
	out.probe = newPhaseProbe(s.Network(), smp, cfg.WarmupCycles+cfg.MeasureCycles+cfg.DrainCycles)
	s.Network().Probe = out.probe

	runSpan := tree.begin("sim.Run", opSpan, lane)
	res := s.Run()
	out.runNs = tree.finish(runSpan)
	end := sinceStart()

	out.outcome = outcomeOf(o.label, res, nil)
	out.outcome.end = end
	for _, t := range timed {
		out.tickNs += t.ns
		out.ticks += t.ticks
	}
	out.router = readRouterCounts(s.Network())
	out.arena = s.Network().Arena().Stats()
	out.latency = res.AvgLatency(nocsim.ClassBackground)
	out.accepted = res.Accepted
	tree.aggregate(&out, smp, runSpan, lane)
	return out
}

// aggregate hangs the op's per-cycle work under its Run span as
// aggregate spans, and files the raw samples under them.
func (tree *spanTree) aggregate(o *opLayer, smp *sampler, runSpan, lane int32) {
	var ids [numKinds]int32
	agg := func(kind int, parent int32, ns, count int64) {
		ids[kind] = tree.add(span{name: kindName(kind), end: ns, parent: parent, count: count, lane: lane})
	}
	p := o.probe
	agg(kindCycle, runSpan, p.cycleNs, p.cycles)
	agg(kindWorklist, ids[kindCycle], p.worklistNs, p.cycles)
	for ph := 0; ph < numPhases; ph++ {
		agg(kindPhase0+ph, ids[kindCycle], p.phaseNs[ph], p.cycles)
	}
	agg(kindTick, runSpan, o.tickNs, o.ticks)
	for i := range smp.spans {
		smp.spans[i].parent = ids[smp.spans[i].parent]
		smp.spans[i].lane = lane
	}
	tree.addSamples(smp.spans)
}

// round is one pass in which every op runs twice, back to back: through
// its public entry point with tracing off, then as a traced replica. The
// untraced twin is the reference for the probe overhead, measured a
// moment apart on the same op, and for the "traced replica equals the
// untraced op" check.
type round struct {
	// both holds the untraced outcome of op i at 2i and the traced one
	// at 2i+1.
	both   pass
	layers []opLayer
}

func (r *round) plain(i int) *opOutcome  { return &r.both.ops[2*i] }
func (r *round) traced(i int) *opOutcome { return &r.both.ops[2*i+1] }

// plainPass is the untraced half of the round, for the pass checks.
func (r *round) plainPass() pass {
	p := pass{start: r.both.start, end: r.both.end}
	for i := range r.layers {
		p.ops = append(p.ops, *r.plain(i))
	}
	return p
}

// tracedCycles is the number of cycles the probes of layers saw.
func tracedCycles(layers []opLayer) int64 {
	var n int64
	for i := range layers {
		n += layers[i].probe.cycles
	}
	return n
}

// allTracedCycles is tracedCycles over every round. Timings are taken
// over all rounds; exact counts over the first alone, because every
// round repeats them and a sum over a varying number of rounds would not.
func allTracedCycles(rounds []round) int64 {
	var n int64
	for ri := range rounds {
		n += tracedCycles(rounds[ri].layers)
	}
	return n
}

// runRound executes one round under the workload's span.
func runRound(tree *spanTree, w *workload, ops []op, parent int32) round {
	r := round{layers: make([]opLayer, len(ops))}
	span := tree.begin("pass", parent, 0)
	r.both = runPass(2*len(ops), w.jobs(), func(k int) opOutcome {
		i := k / 2
		if k%2 == 0 {
			return execPublic(&ops[i])
		}
		r.layers[i] = execTraced(tree, &ops[i], span)
		return r.layers[i].outcome
	})
	tree.finish(span)
	return r
}

// runTraced is the traced run of one workload: set-up once, rounds for
// about half the budget, then the fixtures of every layer.
func runTraced(w *workload, seed int64, b budget, traceOut string) (runRecord, error) {
	rec := runRecord{Workload: w.name, Seed: seed, Traced: true}
	ops, golden, err := setUp(w, seed, b.smoke)
	if err != nil {
		return rec, err
	}
	tree := &spanTree{}
	root := tree.begin("workload "+w.name, noSpan, 0)

	var rounds []round
	t0 := sinceStart()
	for {
		rounds = append(rounds, runRound(tree, w, ops, root))
		elapsed := sinceStart() - t0
		// Another round only if it fits into half the budget.
		perRound := elapsed / int64(len(rounds))
		if b.smoke || float64(elapsed+perRound) > b.seconds*1e9/2 {
			break
		}
	}

	// Checks: every untraced op against the golden file or the first
	// round, every traced op against the untraced one, and on a parallel
	// workload a jobs=1 pass against the jobs=N one.
	var plain []pass
	for i := range rounds {
		plain = append(plain, rounds[i].plainPass())
	}
	rec.Failures = checkPasses(plain, golden)
	rec.Attempted = len(plain) * len(ops)
	first := outcomesToGolden(plain[0].ops)
	for ri := range rounds {
		for i := range ops {
			rec.Attempted++
			if msg := checkAgainst("the untraced op", *rounds[ri].traced(i), first[i]); msg != "" {
				rec.Failures = append(rec.Failures, fmt.Sprintf("round %d, traced: %s", ri+1, msg))
			}
		}
	}
	if w.parallel {
		span := tree.begin("pass jobs=1", root, 0)
		serial := runPublicPass(ops, 1)
		tree.finish(span)
		for i, out := range serial.ops {
			rec.Attempted++
			if msg := checkAgainst(fmt.Sprintf("jobs=%d", w.jobs()), out, first[i]); msg != "" {
				rec.Failures = append(rec.Failures, fmt.Sprintf("jobs=1 pass: %s", msg))
			}
		}
	}
	rec.Passes, rec.Ops = len(rounds), len(rounds)*len(ops)
	rec.Failed = len(rec.Failures)
	rec.Correct = rec.Failed == 0
	if rec.Failed > 0 {
		// A failed op has no layer numbers to aggregate.
		return rec, fmt.Errorf("%s: %d of %d ops failed", w.name, rec.Failed, rec.Attempted)
	}

	m := metricSet{}
	routerMetrics(m, rounds)
	networkMetrics(m, rounds)
	trafficMetrics(m, rounds)
	flitMetrics(m, rounds)
	simMetrics(m, rounds, w.jobs(), tree)

	// The timed loops of the fixtures share what is left of the budget
	// after the fixtures that run a fixed amount of work.
	fx := fixtureBudget{sample: 2 * time.Millisecond, samples: 1, seed: seed}
	if !b.smoke {
		left := time.Duration(b.seconds*1e9) - time.Duration(sinceStart()-t0) - fixedFixtureTime
		fx.samples = 5
		fx.sample = min(max(left/time.Duration(fixtureLoops*fx.samples), 20*time.Millisecond), 200*time.Millisecond)
	}
	span := tree.begin("fixtures", root, 0)
	if err := fixtureMetrics(m, fx); err != nil {
		return rec, err
	}
	tree.finish(span)
	tree.finish(root)

	if traceOut != "" {
		if err := tree.writeChrome(traceOut); err != nil {
			return rec, err
		}
	}
	rec.Metrics, err = complete(perLayer, m)
	return rec, err
}

// fixtureBudget sizes the timed loops of the fixtures.
type fixtureBudget struct {
	// sample is how long one timed loop runs; the median of samples
	// loops is reported.
	sample  time.Duration
	samples int
	seed    int64
}

// fixtureLoops is the number of timeLoop calls fixtureMetrics makes, and
// fixedFixtureTime about what its other work takes (stepping two fabrics
// to their frozen cycle, the trace replays, the observability pairs), for
// splitting a time budget between the loops.
const (
	fixtureLoops     = 12
	fixedFixtureTime = 3 * time.Second
)

// fixtureMetrics runs every layer's fixture. Fixtures do not depend on
// the workload: they are the same timed loops over public functions on
// every one, read most naturally under uniform_mid.
func fixtureMetrics(m metricSet, fx fixtureBudget) error {
	allocFixtures(m, fx)
	flitFixtures(m, fx)
	if err := routingFixtures(m, fx); err != nil {
		return err
	}
	if err := traceFixtures(m, fx); err != nil {
		return err
	}
	return obsFixtures(m, fx)
}

// timeLoop calls f in batches until fx.sample has passed and returns the
// ns per call; it reports the median of fx.samples such loops.
func (fx fixtureBudget) timeLoop(batch int, f func()) float64 {
	per := make([]float64, fx.samples)
	for s := range per {
		calls := 0
		t0 := time.Now()
		var took time.Duration
		for took < fx.sample {
			for i := 0; i < batch; i++ {
				f()
			}
			calls += batch
			took = time.Since(t0)
		}
		per[s] = float64(took) / float64(calls)
	}
	return median(per)
}
