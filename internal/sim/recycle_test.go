package sim

import (
	"fmt"
	"math"
	"reflect"
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

// emptyPool drops every pooled fabric, so that the next New builds on new
// memory, as the first run of a process does.
func emptyPool() {
	fabrics.Lock()
	fabrics.free = nil
	fabrics.Unlock()
}

// pooled reports whether f waits in the pool.
func pooled(f *fabric) bool {
	fabrics.Lock()
	defer fabrics.Unlock()
	return slices.Contains(fabrics.free, f)
}

// poolHolds reports whether the pool holds f and nothing else.
func poolHolds(f *fabric) bool {
	fabrics.Lock()
	defer fabrics.Unlock()
	return len(fabrics.free) == 1 && fabrics.free[0] == f
}

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

	tr := DefaultConfig()
	tr.Width, tr.Height, tr.VCs, tr.Algorithm = 4, 4, 4, "footprint"
	tr.WarmupCycles, tr.MeasureCycles, tr.DrainCycles = 0, 600, 2400
	wl, err := trace.WorkloadByName("x264")
	if err != nil {
		panic(err)
	}
	records := trace.Generate(wl, tr.Mesh(), 600, 7)
	cases = append(cases, simCase("trace x264", tr, func() ([]Injector, error) {
		return []Injector{trace.NewPlayer(records)}, nil
	}))

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
