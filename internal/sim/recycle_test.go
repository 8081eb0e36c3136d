package sim

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"nocsim/internal/flit"
	"nocsim/internal/network"
	"nocsim/internal/obs"
	"nocsim/internal/routing"
	"nocsim/internal/topo"
	"nocsim/internal/trace"
	"nocsim/internal/traffic"
)

// emptyPool drops every pooled fabric and every pooled trace index, so
// that the next New builds on new memory, as the first run of a process
// does. The trace pool holds at most as many indexes as there were
// players alive at once, never more than a few in this package's tests:
// a player that checks a trace takes one, and keeps it unless recycled.
func emptyPool() {
	for fabrics.Take(nil) != nil {
	}
	one := []trace.Record{{ID: 1, Src: 0, Dest: 1, Size: 1}}
	for range 64 {
		if err := trace.NewPlayer(one).CheckMesh(topo.MustNew(2, 1)); err != nil {
			panic(err)
		}
	}
}

// pooledFabrics returns the pooled fabrics, put back last first, and
// leaves the pool as it found it.
func pooledFabrics() []*fabric {
	var all []*fabric
	for f := fabrics.Take(nil); f != nil; f = fabrics.Take(nil) {
		all = append(all, f)
	}
	for i := len(all) - 1; i >= 0; i-- {
		fabrics.Put(all[i])
	}
	return all
}

// pooled reports whether f waits in the pool.
func pooled(f *fabric) bool { return slices.Contains(pooledFabrics(), f) }

// poolHolds reports whether the pool holds f and nothing else.
func poolHolds(f *fabric) bool { return slices.Equal(pooledFabrics(), []*fabric{f}) }

// recycleCase is a run to compare on recycled and on new memory. run
// makes it from new injectors; keep takes the Network before Run, so that
// the arena can be read after it. It returns the fabric the run was built
// on, nil when it cannot see it.
type recycleCase struct {
	name string
	cfg  Config
	run  func(keep bool) (Result, flit.ArenaStats, *fabric, error)
}

// scrubWall clears the wall-clock fields of r and makes a NaN P99
// (an empty histogram) equal to itself under reflect.DeepEqual.
func scrubWall(r *Result) Result {
	c := *r
	c.Runtime.WallSeconds, c.Runtime.CyclesPerSec, c.Runtime.FlitHopsPerSec = 0, 0, 0
	if math.IsNaN(c.P99) {
		c.P99 = -1
	}
	return c
}

// simCase runs cfg with the injectors gens makes.
func simCase(name string, cfg Config, gens func() ([]Injector, error)) recycleCase {
	return recycleCase{name: name, cfg: cfg, run: func(keep bool) (Result, flit.ArenaStats, *fabric, error) {
		g, err := gens()
		if err != nil {
			return Result{}, flit.ArenaStats{}, nil, err
		}
		s, err := New(cfg, g...)
		if err != nil {
			return Result{}, flit.ArenaStats{}, nil, err
		}
		fab := s.fab
		var net *network.Network
		if keep {
			net = s.Network()
		}
		res := s.Run()
		var arena flit.ArenaStats
		if keep {
			arena = net.Arena().Stats()
		}
		return scrubWall(res), arena, fab, nil
	}}
}

// patternGens makes a uniform injector of packets of lo to hi flits.
func patternGens(cfg Config, rate float64, lo, hi int) func() ([]Injector, error) {
	return func() ([]Injector, error) {
		g, err := PatternGenerator(cfg, "uniform", traffic.UniformSize(lo, hi), rate)
		return []Injector{g}, err
	}
}

// recycleCases is a run of every routing algorithm, a trace replay (the
// EjectObserver path) and a HotspotRun. HotspotRun takes no Network, so
// its case reads no arena.
func recycleCases() []recycleCase {
	var cases []recycleCase
	for i, alg := range routing.Names() {
		cfg := DefaultConfig()
		cfg.Width, cfg.Height, cfg.VCs = 4, 4, 4
		cfg.Algorithm, cfg.Seed = alg, DeriveSeed(1, fmt.Sprintf("recycle/%d", i))
		cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 200, 400, 2000
		cases = append(cases, simCase(alg, cfg, patternGens(cfg, 0.3, 1, 6)))
	}

	cases = append(cases, traceCase())

	hs := DefaultConfig()
	hs.Algorithm, hs.VCs = "dbar", 4
	hs.WarmupCycles, hs.MeasureCycles, hs.DrainCycles = 200, 300, 300
	cases = append(cases, recycleCase{name: "hotspot", cfg: hs, run: func(bool) (Result, flit.ArenaStats, *fabric, error) {
		pt, err := HotspotRun(hs, 0.3, 0.7)
		if err != nil {
			return Result{}, flit.ArenaStats{}, nil, err
		}
		return scrubWall(pt.Result), flit.ArenaStats{}, nil, nil
	}})
	return cases
}

// parsec generates the named PARSEC workloads for mesh over cycles
// cycles and merges them.
func parsec(mesh topo.Mesh, cycles, seed int64, names ...string) []trace.Record {
	var traces [][]trace.Record
	for _, name := range names {
		wl, err := trace.WorkloadByName(name)
		if err != nil {
			panic(err)
		}
		traces = append(traces, trace.Generate(wl, mesh, cycles, DeriveSeed(seed, "recycle/trace/"+name)))
	}
	return trace.Merge(traces...)
}

// x264Trace is the trace traceCase replays on mesh.
func x264Trace(mesh topo.Mesh) []trace.Record {
	wl, err := trace.WorkloadByName("x264")
	if err != nil {
		panic(err)
	}
	return trace.Generate(wl, mesh, 600, 7)
}

// traceCase is a 4×4 replay of an x264 trace, measured to the end.
func traceCase() recycleCase {
	tr := DefaultConfig()
	tr.Width, tr.Height, tr.VCs, tr.Algorithm = 4, 4, 4, "footprint"
	tr.WarmupCycles, tr.MeasureCycles, tr.DrainCycles = 0, 600, 2400
	records := x264Trace(tr.Mesh())
	return simCase("trace x264", tr, func() ([]Injector, error) {
		return []Injector{trace.NewPlayer(records)}, nil
	})
}

// hasOwnerIndex reports whether alg's routers carry Footprint's owner
// index.
func hasOwnerIndex(alg string) bool {
	_, index := routing.StateLen(topo.MustNew(2, 2), 2, routing.MustNew(alg))
	return index > 0
}

// dirty runs, and leaves to the pool, a predecessor of a run of target:
// a larger mesh with more VCs and deeper buffers, on the given side of
// Footprint's owner index, saturated with 1–6-flit packets and stopped
// before it drains. It returns the fabric the predecessor ran on, and the
// network it was.
func dirty(target Config, index bool) (*fabric, *network.Network, error) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = target.Width+1, target.Height+2
	cfg.VCs, cfg.BufDepth = target.VCs+2, target.BufDepth+2
	cfg.Algorithm = "dbar"
	if index {
		cfg.Algorithm = "footprint"
	}
	cfg.Seed = DeriveSeed(1, "recycle/dirty/"+target.Algorithm)
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 100, 200, 0
	g, err := patternGens(cfg, 0.9, 1, 6)()
	if err != nil {
		return nil, nil, err
	}
	s, err := New(cfg, g...)
	if err != nil {
		return nil, nil, err
	}
	net, fab := s.net, s.fab
	s.Run()
	return fab, net, nil
}

// mustDirty is dirty that also checks that the predecessor left its
// fabric full, with flits in its buffers and packets in its source
// queues, and in the pool.
func mustDirty(t *testing.T, target Config, index bool) *fabric {
	t.Helper()
	fab, net, err := dirty(target, index)
	if err != nil {
		t.Fatal(err)
	}
	queued, buffered := false, false
	for id := 0; id < net.Nodes(); id++ {
		queued = queued || net.Endpoint(id).QueueLen() > 1
		buffered = buffered || !net.Router(id).Quiescent()
	}
	if !queued || !buffered || !pooled(fab) {
		t.Fatalf("predecessor: packets queued %v, flits buffered %v, fabric pooled %v; want all three",
			queued, buffered, pooled(fab))
	}
	return fab
}

// TestRecycledRunMatchesFresh: a run built on the memory of a dirty
// predecessor (larger, with more VCs, on the other side of Footprint's
// owner index, stopped full of flits and queued packets) gives the
// Result and the arena accounting of a run on new memory, field for
// field, for every algorithm, a trace replay and a HotspotRun. Then the
// same runs, each behind a predecessor, go through sim.Map at 4 workers,
// which hands recycled fabrics from goroutine to goroutine.
func TestRecycledRunMatchesFresh(t *testing.T) {
	cases := recycleCases()
	type outcome struct {
		res   Result
		arena flit.ArenaStats
	}
	fresh := make([]outcome, len(cases))
	for i, c := range cases {
		emptyPool()
		res, arena, _, err := c.run(true)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fresh[i] = outcome{res, arena}
	}

	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			emptyPool()
			// A first predecessor, on the target's side of the index,
			// dirties what the second keeps without using: Footprint's
			// owner index, when the target is Footprint.
			own := hasOwnerIndex(c.cfg.Algorithm)
			mustDirty(t, c.cfg, own)
			pred := mustDirty(t, c.cfg, !own)
			res, arena, fab, err := c.run(true)
			if err != nil {
				t.Fatal(err)
			}
			if fab == nil && poolHolds(pred) { // HotspotRun ran on pred and put it back
				fab = pred
			}
			if fab != pred {
				t.Fatal("the run did not build on its predecessor's fabric")
			}
			if !reflect.DeepEqual(res, fresh[i].res) {
				t.Errorf("Result on recycled memory differs from a first run:\nrecycled: %+v\nfresh:    %+v", res, fresh[i].res)
			}
			if arena != fresh[i].arena {
				t.Errorf("arena on recycled memory %v, first run %v", arena, fresh[i].arena)
			}
		})
	}

	emptyPool()
	got, err := Map(4, 2*len(cases), func(j int) (Result, error) {
		c := cases[j/2]
		if j%2 == 0 {
			_, _, err := dirty(c.cfg, !hasOwnerIndex(c.cfg.Algorithm))
			return Result{}, err
		}
		res, _, _, err := c.run(false)
		return res, err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cases {
		if !reflect.DeepEqual(got[2*i+1], fresh[i].res) {
			t.Errorf("%s under sim.Map at 4 workers: Result differs from a first run:\nmap:   %+v\nfresh: %+v", c.name, got[2*i+1], fresh[i].res)
		}
	}
}

// dumpResult renders r with everything its pointers reach, the
// collectors' exports included.
func dumpResult(t *testing.T, r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%+v\n", *r)
	for _, c := range []flit.Class{flit.ClassBackground, flit.ClassHotspot} {
		if sum := r.Latency[c]; sum != nil {
			fmt.Fprintf(&b, "latency %v: %+v\n", c, *sum)
		}
	}
	fmt.Fprintf(&b, "anatomy %+v\n", *r.Anatomy)
	for _, err := range []error{
		r.Obs.Tracer.WriteJSONL(&b), r.Obs.Sampler.WriteCSV(&b),
		r.Obs.Heatmap.WriteCSV(&b), r.Obs.Anatomy.Aggregate().WriteCSV(&b),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// TestRunRecyclesUnlessNetworkTaken: a Simulation whose Network was taken
// before Run keeps its fabric, which reads after Run as it did when Run
// returned however many runs follow; one whose Network was not taken
// hands its fabric to the next New, its Step, Run and Network panic with
// the rule, and its Result, every collector included, does not change as
// later runs build on its memory.
func TestRunRecyclesUnlessNetworkTaken(t *testing.T) {
	cfg := testConfig()
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 100, 300, 0
	cfg.Obs = obs.Options{Trace: true, SamplePeriod: 50, Heatmap: true, Anatomy: true}
	newSim := func() *Simulation {
		g, err := PatternGenerator(cfg, "uniform", traffic.FixedSize(2), 0.8)
		if err != nil {
			t.Fatal(err)
		}
		return MustNew(cfg, g)
	}
	// read is what an analyzer reads of a fabric after its run.
	read := func(net *network.Network) string {
		var b strings.Builder
		fmt.Fprintf(&b, "in flight %d, hops %d, arena %v\n", net.InFlight(), net.TotalOutputFlits(), net.Arena().Stats())
		for id := 0; id < net.Nodes(); id++ {
			r := net.Router(id)
			fmt.Fprintf(&b, "%d: queue %d quiescent %v idle %v owners %v", id, net.Endpoint(id).QueueLen(), r.Quiescent(), r.State().Idle, r.State().Owner)
			for d := topo.East; d <= topo.Local; d++ {
				for v := 0; v < cfg.VCs; v++ {
					fmt.Fprintf(&b, " %+v %+v", r.InputVCSnapshot(d, v), r.OutputVCSnapshot(d, v))
				}
			}
			b.WriteByte('\n')
		}
		return b.String()
	}

	emptyPool()
	kept := newSim()
	net := kept.Network()
	res := kept.Run()
	if pooled(kept.fab) {
		t.Fatal("Run recycled a fabric whose Network was taken")
	}
	if net.InFlight() == 0 || net.TotalOutputFlits() != res.Runtime.FlitHops {
		t.Fatalf("kept fabric after Run: %d in flight, %d hops, Result says %d hops; want a loaded fabric that matches",
			net.InFlight(), net.TotalOutputFlits(), res.Runtime.FlitHops)
	}
	before := read(net)
	for range 2 {
		newSim().Run()
	}
	if after := read(net); after != before {
		t.Errorf("a kept fabric changed under later runs:\nafter Run: %s\nlater:     %s", before, after)
	}
	kept.Step() // a kept fabric goes on stepping

	emptyPool()
	done := newSim()
	fab := done.fab
	res = done.Run()
	if !pooled(fab) {
		t.Fatal("Run did not recycle a fabric whose Network was not taken")
	}
	before = dumpResult(t, res)
	for name, call := range map[string]func(){
		"Step": done.Step, "Run": func() { done.Run() }, "Network": func() { done.Network() },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "sim: "+name+" after Run") || !strings.Contains(msg, "Network() was not taken") || strings.Contains(msg, "\n") {
					t.Errorf("%s on a recycled simulation: panic %q, want one line naming the rule", name, msg)
				}
			}()
			call()
		}()
	}
	next := newSim()
	if next.fab != fab {
		t.Error("the next New did not build on the recycled fabric")
	}
	next.Run()
	newSim().Run()
	if after := dumpResult(t, res); after != before {
		t.Errorf("a Result changed as later runs built on its fabric:\nat Run: %s\nlater:  %s", before, after)
	}
}

// dirtyTrace runs, and leaves to the pools, a predecessor of a replay of
// target: a larger mesh with more VCs and deeper buffers, and a larger,
// different trace (a canneal+x264 pair), stopped before the trace ends and
// before it drains. It returns the fabric and the player it ran on, and
// its Result.
func dirtyTrace(target Config) (*fabric, *trace.Player, *Result, error) {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = target.Width+1, target.Height+2
	cfg.VCs, cfg.BufDepth = target.VCs+2, target.BufDepth+2
	cfg.Algorithm = "dbar"
	cfg.Seed = DeriveSeed(1, "recycle/dirty-trace")
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 0, 500, 0
	p := trace.NewPlayer(parsec(cfg.Mesh(), 1200, 3, "canneal", "x264"))
	s, err := New(cfg, p)
	if err != nil {
		return nil, nil, nil, err
	}
	fab := s.fab
	return fab, p, s.Run(), nil
}

// TestRecycledTraceReplayMatchesFresh: a trace replay built on the fabric
// and the dependency index of a predecessor replay gives the Result and
// the arena accounting of a replay on new memory. The predecessor is
// larger and replays a larger, different trace, cut short: it leaves
// records undelivered and packets in flight, so its index holds another
// trace's IDs, delivered bits and waiters, and pointers into arena slots
// that the target hands out again, to its player and to the uniform
// background it runs beside. The pools are empty before the predecessor,
// so the target's player takes exactly its index. Then the same pair goes
// through sim.Map at 4 workers.
func TestRecycledTraceReplayMatchesFresh(t *testing.T) {
	base := traceCase().cfg
	records := x264Trace(base.Mesh())
	c := simCase("trace x264 over uniform", base, func() ([]Injector, error) {
		g, err := PatternGenerator(base, "uniform", traffic.UniformSize(1, 4), 0.1)
		return []Injector{trace.NewPlayer(records), g}, err
	})
	emptyPool()
	fresh, freshArena, _, err := c.run(true)
	if err != nil {
		t.Fatal(err)
	}

	emptyPool()
	pred, p, res, err := dirtyTrace(c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Total <= len(records) || p.Done >= p.Total || res.MeasuredEjected >= res.Measured || !pooled(pred) {
		t.Fatalf("predecessor: %d records against the target's %d, %d of %d delivered, %d of %d measured packets ejected, fabric pooled %v; want a larger trace cut short with packets in flight",
			p.Total, len(records), p.Done, p.Total, res.MeasuredEjected, res.Measured, pooled(pred))
	}
	got, arena, fab, err := c.run(true)
	if err != nil {
		t.Fatal(err)
	}
	if fab != pred {
		t.Fatal("the replay did not build on its predecessor's fabric")
	}
	if !reflect.DeepEqual(got, fresh) {
		t.Errorf("replay on recycled memory differs from a first replay:\nrecycled: %+v\nfresh:    %+v", got, fresh)
	}
	if arena != freshArena {
		t.Errorf("arena on recycled memory %v, first replay %v", arena, freshArena)
	}

	emptyPool()
	const pairs = 4
	runs, err := Map(4, 2*pairs, func(j int) (Result, error) {
		if j%2 == 0 {
			_, _, _, err := dirtyTrace(c.cfg)
			return Result{}, err
		}
		res, _, _, err := c.run(false)
		return res, err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(runs); i += 2 {
		if !reflect.DeepEqual(runs[i], fresh) {
			t.Errorf("replay %d under sim.Map at 4 workers differs from a first replay:\nmap:   %+v\nfresh: %+v", i/2, runs[i], fresh)
		}
	}
}

// TestRecycledTraceRunAllocatesResidual pins what a trace replay costs
// once its fabric and its player's dependency index are recycled
// (DESIGN.md, "Recycling"): after a first replay of the benchmark's
// trace_x264_canneal op (8×8 Table 2, Footprint, an x264+canneal pair of
// 3,000 cycles, here 7,566 records, 0/3000/12000 cycles) on new memory,
// each later replay of the trace builds on what the one before left and
// allocates only what it does not recycle. Measured: the first replay
// 1,052,152 B, each later one 1,896 B; 406,646 B while the player
// rebuilt its index every replay.
func TestRecycledTraceRunAllocatesResidual(t *testing.T) {
	const mostBytes = 16 << 10
	cfg := DefaultConfig()
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 0, 3000, 12000
	records := parsec(cfg.Mesh(), 3000, 1, "x264", "canneal")
	replay := func() {
		s, err := New(cfg, trace.NewPlayer(records))
		if err != nil {
			t.Fatal(err)
		}
		s.Run()
	}
	// bytes returns what each of runs replays allocates.
	bytes := func(runs uint64) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			replay()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	emptyPool()
	first := bytes(1)
	later := bytes(5)
	t.Logf("%d records: the first replay allocates %d B, a later one %d B", len(records), first, later)
	if later > mostBytes {
		t.Errorf("a replay on a recycled fabric and index allocates %d B, want at most %d", later, mostBytes)
	}
}
