// Package network_test exercises the fabric from outside: it lives in an
// external test package so it can use internal/obs (which itself imports
// network) for watchdog-backed drain diagnostics.
package network_test

import (
	"math/rand"
	"runtime"
	"testing"

	"nocsim"
	"nocsim/internal/flit"
	"nocsim/internal/network"
	"nocsim/internal/obs"
	"nocsim/internal/routing"
	"nocsim/internal/topo"
)

func newNet(t *testing.T, w, h int, alg string, vcs int) *network.Network {
	t.Helper()
	return network.New(network.Config{
		Mesh:     topo.MustNew(w, h),
		VCs:      vcs,
		BufDepth: 4,
		Speedup:  2,
		Alg:      routing.MustNew(alg),
		Rand:     rand.New(rand.NewSource(1)),
	}, nil)
}

// drainOrDiagnose steps the network until it empties or budget cycles
// pass, watching for stalls with the obs watchdog. Instead of a bare
// "packets stuck (deadlock?)", a failed drain reports the fabric
// snapshot's blocked-on chains — which VC is waiting on which, and where
// the chain ends.
func drainOrDiagnose(t *testing.T, n *network.Network, budget int) {
	t.Helper()
	const beat = 100
	wd := obs.NewWatchdog(2000, func() *obs.FabricSnapshot { return obs.Capture(n) })
	for i := 0; i < budget && n.InFlight() > 0; i++ {
		if i%beat == 0 {
			if rep := wd.Beat(n.Now(), n.InFlight(), n.TotalOutputFlits()); rep != nil {
				t.Fatalf("drain stalled:\n%s", rep.Summary())
			}
		}
		n.Step()
	}
	if n.InFlight() > 0 {
		t.Fatalf("%d packets still in flight after %d-cycle drain budget:\n%s",
			n.InFlight(), budget, obs.Capture(n).Summary())
	}
}

func TestSinglePacketDelivery(t *testing.T) {
	for _, alg := range routing.Names() {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			n := newNet(t, 8, 8, alg, 4)
			var got *flit.Packet
			n.Sink = func(p *flit.Packet) { got = p }
			p := &flit.Packet{ID: 1, Src: 0, Dest: 63, Size: 1, Born: 0}
			n.Offer(p)
			for range 200 {
				n.Step()
			}
			if got == nil {
				t.Fatal("packet not delivered")
			}
			if int(got.Hops) != topo.MustNew(8, 8).Hops(0, 63)+1 {
				t.Errorf("hops = %d, want %d (minimal routers visited)", got.Hops, 15)
			}
			if got.Latency() <= 0 || got.Latency() > 100 {
				t.Errorf("implausible zero-load latency %d", got.Latency())
			}
			if n.InFlight() != 0 {
				t.Errorf("InFlight = %d after drain", n.InFlight())
			}
		})
	}
}

func TestMultiFlitPacketDelivery(t *testing.T) {
	n := newNet(t, 4, 4, "footprint", 4)
	var got *flit.Packet
	n.Sink = func(p *flit.Packet) { got = p }
	p := &flit.Packet{ID: 7, Src: 0, Dest: 15, Size: 6, Born: 0}
	n.Offer(p)
	for range 200 {
		n.Step()
	}
	if got == nil {
		t.Fatal("multi-flit packet not delivered")
	}
}

func TestPacketToSelfNeighbor(t *testing.T) {
	// One-hop packet: src and dest adjacent.
	n := newNet(t, 4, 4, "dor", 2)
	done := 0
	n.Sink = func(p *flit.Packet) { done++ }
	n.Offer(&flit.Packet{ID: 1, Src: 0, Dest: 1, Size: 1})
	for range 50 {
		n.Step()
	}
	if done != 1 {
		t.Fatalf("one-hop packet not delivered")
	}
}

// TestRandomTrafficAllAlgorithms floods the mesh with random traffic and
// checks that every packet drains (deadlock/livelock smoke test) with
// minimal hop counts.
func TestRandomTrafficAllAlgorithms(t *testing.T) {
	m := topo.MustNew(4, 4)
	for _, alg := range routing.Names() {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			n := newNet(t, 4, 4, alg, 4)
			delivered := 0
			n.Sink = func(p *flit.Packet) {
				delivered++
				if int(p.Hops) != m.Hops(p.Src, p.Dest)+1 {
					t.Errorf("packet %d: hops %d, want %d (minimal)", p.ID, p.Hops, m.Hops(p.Src, p.Dest)+1)
				}
			}
			rng := rand.New(rand.NewSource(7))
			offered := 0
			for cycle := 0; cycle < 1500; cycle++ {
				if cycle < 1000 {
					for node := 0; node < 16; node++ {
						if rng.Float64() < 0.2 {
							dest := rng.Intn(16)
							if dest == node {
								continue
							}
							offered++
							n.Offer(&flit.Packet{
								ID:   uint64(offered),
								Src:  node,
								Dest: dest,
								Size: 1 + rng.Intn(3),
								Born: n.Now(),
							})
						}
					}
				}
				n.Step()
			}
			drainOrDiagnose(t, n, 20000)
			if delivered != offered {
				t.Errorf("delivered %d of %d", delivered, offered)
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		n := newNet(t, 4, 4, "footprint", 4)
		var lat []int64
		n.Sink = func(p *flit.Packet) { lat = append(lat, p.Latency()) }
		rng := rand.New(rand.NewSource(99))
		id := uint64(0)
		for cycle := 0; cycle < 500; cycle++ {
			for node := 0; node < 16; node++ {
				if rng.Float64() < 0.3 {
					dest := (node + 1 + rng.Intn(15)) % 16
					id++
					n.Offer(&flit.Packet{ID: id, Src: node, Dest: dest, Size: 1, Born: n.Now()})
				}
			}
			n.Step()
		}
		return lat
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic delivery count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic latency at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestEndpointOversubscription drives two persistent flows at one
// destination — the paper's endpoint congestion scenario — and checks that
// the network keeps delivering without loss.
func TestEndpointOversubscription(t *testing.T) {
	n := newNet(t, 8, 8, "footprint", 4)
	delivered := 0
	n.Sink = func(p *flit.Packet) { delivered++ }
	offered := 0
	for cycle := 0; cycle < 2000; cycle++ {
		if cycle < 1000 {
			// Flows n4->n13 and n12->n13 at full rate.
			for _, src := range []int{4, 12} {
				offered++
				n.Offer(&flit.Packet{ID: uint64(offered), Src: src, Dest: 13, Size: 1, Born: n.Now()})
			}
		}
		n.Step()
	}
	drainOrDiagnose(t, n, 100000)
	if delivered != offered {
		t.Errorf("delivered %d of %d", delivered, offered)
	}
}

func TestDownstreamIdleAtEdge(t *testing.T) {
	n := newNet(t, 4, 4, "dbar", 4)
	// Node 3 has no East neighbour.
	if got := n.Router(3).DownstreamIdle(topo.East, 0); got != 0 {
		t.Errorf("edge DownstreamIdle = %d, want 0", got)
	}
	// Interior: neighbour exists, all VCs idle initially: 3 adaptive VCs
	// per productive port.
	got := n.Router(5).DownstreamIdle(topo.East, 7) // neighbour 6, productive E only
	if got != 3 {
		t.Errorf("DownstreamIdle = %d, want 3", got)
	}
	// Toward a corner needing both dims from neighbour.
	got = n.Router(5).DownstreamIdle(topo.East, 11) // neighbour 6: dest 11 is E+S
	if got != 6 {
		t.Errorf("DownstreamIdle = %d, want 6", got)
	}
	// The neighbour is the destination: its ejection port's adaptive VCs.
	if got := n.Router(5).DownstreamIdle(topo.East, 6); got != 3 {
		t.Errorf("DownstreamIdle toward the neighbour itself = %d, want 3", got)
	}
}

func TestOfferWrongSourcePanics(t *testing.T) {
	n := newNet(t, 4, 4, "dor", 2)
	defer func() {
		if recover() == nil {
			t.Error("wrong-source Offer did not panic")
		}
	}()
	n.Endpoint(3).Offer(&flit.Packet{Src: 5})
}

// TestXORDETIsolatesVCClasses checks the static-mapping invariant at the
// fabric level: with dor+xordet, every flit traversing an inter-router
// link uses exactly the VC class of its destination.
func TestXORDETIsolatesVCClasses(t *testing.T) {
	m := topo.MustNew(4, 4)
	n := newNet(t, 4, 4, "dor+xordet", 4)
	bad := 0
	n.Sink = func(p *flit.Packet) {}
	rng := rand.New(rand.NewSource(3))
	id := uint64(0)
	for cycle := 0; cycle < 600; cycle++ {
		for node := 0; node < 16; node++ {
			if rng.Float64() < 0.2 {
				dest := rng.Intn(16)
				if dest == node {
					continue
				}
				id++
				n.Offer(&flit.Packet{ID: id, Src: node, Dest: dest, Size: 1, Born: n.Now()})
			}
		}
		n.Step()
		// Inspect every router's non-local input VCs: any flit buffered
		// in VC v must belong to a destination of class v.
		for r := 0; r < 16; r++ {
			rt := n.Router(r)
			for d := topo.East; d <= topo.South; d++ {
				for v := 0; v < 4; v++ {
					iv := rt.InputVCSnapshot(d, v)
					if iv.Buffered == 0 {
						continue
					}
					if want := routing.Class(m, iv.PacketDest, 4); v != want {
						bad++
					}
				}
			}
		}
	}
	if bad != 0 {
		t.Errorf("%d class violations under dor+xordet", bad)
	}
}

// TestVOQSWDeliversEverything is a fabric-level smoke test of the VOQ_sw
// overlay on every base algorithm.
func TestVOQSWDeliversEverything(t *testing.T) {
	for _, alg := range []string{"dor+voqsw", "oddeven+voqsw", "dbar+voqsw"} {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			n := newNet(t, 4, 4, alg, 4)
			delivered := 0
			n.Sink = func(p *flit.Packet) { delivered++ }
			rng := rand.New(rand.NewSource(11))
			offered := 0
			for cycle := 0; cycle < 800; cycle++ {
				if cycle < 500 {
					for node := 0; node < 16; node++ {
						if rng.Float64() < 0.15 {
							dest := rng.Intn(16)
							if dest == node {
								continue
							}
							offered++
							n.Offer(&flit.Packet{ID: uint64(offered), Src: node, Dest: dest, Size: 1 + rng.Intn(3), Born: n.Now()})
						}
					}
				}
				n.Step()
			}
			drainOrDiagnose(t, n, 30000)
			if delivered != offered {
				t.Errorf("delivered %d of %d", delivered, offered)
			}
		})
	}
}

// TestSlowEndpointNetworkLossless verifies the slow-endpoint feature does
// not lose or duplicate packets at the fabric level.
func TestSlowEndpointNetworkLossless(t *testing.T) {
	n := network.New(network.Config{
		Mesh:     topo.MustNew(4, 4),
		VCs:      4,
		BufDepth: 4,
		Speedup:  2,
		Alg:      routing.MustNew("footprint"),
		Rand:     rand.New(rand.NewSource(5)),
		SlowEndpoints: map[int]int{
			5: 3,
		},
	}, nil)
	delivered := 0
	n.Sink = func(p *flit.Packet) { delivered++ }
	offered := 0
	for cycle := 0; cycle < 600; cycle++ {
		if cycle < 300 && cycle%4 == 0 {
			offered++
			n.Offer(&flit.Packet{ID: uint64(offered), Src: 0, Dest: 5, Size: 1, Born: n.Now()})
		}
		n.Step()
	}
	for i := 0; i < 20000 && n.InFlight() > 0; i++ {
		n.Step()
	}
	if delivered != offered {
		t.Errorf("delivered %d of %d through slow endpoint", delivered, offered)
	}
}

// TestWakeAfterLongSleep: a fabric that has slept for 1,000 cycles is woken
// by one Offer and carries the packet exactly as the reference fabric,
// which steps every node and link every cycle — same state every cycle,
// same injection and ejection cycles and hop count, for an adaptive
// algorithm drawing from the shared RNG — and its wake lists agree with a
// scan once it has drained.
func TestWakeAfterLongSleep(t *testing.T) {
	l := newLockstep(t, lockstepSpec{alg: "footprint", w: 8, h: 8, vcs: 4, depth: 4, speedup: 2, seed: 1})
	var got flit.Packet
	record := l.net.Sink
	l.net.Sink = func(p *flit.Packet) { got = *p; record(p) }
	for i := 0; i < 1000; i++ {
		l.step()
	}
	l.offer(9, 54, 5)
	for i := 0; i < 500 && !l.drained(); i++ {
		l.step()
	}
	if !l.drained() || l.ejected != 1 {
		t.Fatalf("packet offered to a fabric asleep for 1,000 cycles not delivered in 500 (in flight %d)", l.net.InFlight())
	}
	if got.Inject != 1000 {
		t.Errorf("packet offered at cycle 1000 of an idle fabric injected at %d", got.Inject)
	}
	if faults := l.net.WakeListFaults(); len(faults) > 0 {
		t.Errorf("drained: %v", faults)
	}
}

// TestFabricStateIndependentOfMeshSize pins what a router holds to its
// VCs, not to the mesh: the per-destination owner index, the one
// structure sized by the node count, is built only where Footprint
// decides, so a DOR fabric's marginal bytes per node are the same from
// 4×4 to 8×8 as from 8×8 to 16×16, and every router of a Footprint
// fabric has an index while no other algorithm's router does. Marginal,
// not average: the bytes a fabric holds once (its VC-allocation scratch,
// the network's own fields) would otherwise weigh 16 times as much per
// node at 4×4 as at 16×16.
func TestFabricStateIndependentOfMeshSize(t *testing.T) {
	bytes := func(side int) float64 {
		var best uint64
		for i := 0; i < 3; i++ { // the least of three: another goroutine may allocate too
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			n := newNet(t, side, side, "dor", 10)
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(n)
			if b := after.TotalAlloc - before.TotalAlloc; i == 0 || b < best {
				best = b
			}
		}
		return float64(best)
	}
	b4, b8, b16 := bytes(4), bytes(8), bytes(16)
	small, large := (b8-b4)/(64-16), (b16-b8)/(256-64)
	if large > 1.1*small || small > 1.1*large {
		t.Errorf("network.New allocates %.0f B per added node for DOR from 4x4 to 8x8 and %.0f B from 8x8 to 16x16: more than 10%% apart", small, large)
	}
	// What a DOR node costs at Table 2's 10 VCs: measured 5,891 B from 8×8
	// to 16×16 (7,457 while counters were 4 or 8 bytes and flags bools,
	// 11,711 while each router held its own VC-allocation scratch).
	const most = 6100
	if large > most {
		t.Errorf("network.New allocates %.0f B per added node for DOR at 10 VCs, want at most %d", large, most)
	}

	for _, alg := range routing.Names() {
		n := newNet(t, 4, 4, alg, 4)
		for id := 0; id < n.Nodes(); id++ {
			if indexed := n.Router(id).State().Owners != nil; indexed != (alg == "footprint") {
				t.Errorf("%s: router %d has an owner index: %v", alg, id, indexed)
			}
		}
	}
}

// TestNewAllocatesPerFabricNotPerNode pins construction to a constant
// number of heap allocations: every per-node array is cut from one slab
// per element type, arbiters and the VC allocator are values inside the
// router, and one algorithm instance serves the fabric, so a 16×16 mesh
// costs what a 4×4 one does. It also pins the bytes a 16×16 DOR fabric
// costs per node, which follow the widths the router state is stored at
// (DESIGN.md, "Construction").
func TestNewAllocatesPerFabricNotPerNode(t *testing.T) {
	for _, c := range []struct {
		alg  string
		most float64 // measured: footprint adds its owner index slab
	}{{"dor", 17}, {"footprint", 18}} {
		counts := map[int]float64{}
		for _, side := range []int{4, 16} {
			cfg := network.Config{Mesh: topo.MustNew(side, side), VCs: 10, BufDepth: 4, Speedup: 2,
				Alg: routing.MustNew(c.alg), Rand: rand.New(rand.NewSource(1))}
			counts[side] = testing.AllocsPerRun(10, func() { network.New(cfg, nil) })
		}
		if counts[4] != counts[16] || counts[16] > c.most {
			t.Errorf("%s: network.New makes %v allocations at 4x4 and %v at 16x16, want equal and at most %v",
				c.alg, counts[4], counts[16], c.most)
		}
	}

	// Table 2's router at 10 VCs on the 16×16 mesh of Figure 8: measured
	// 5,979 B per node, 7,598 while counters were 4 or 8 bytes and flags
	// bools.
	const mostBytes = 6100
	net := network.Config{Mesh: topo.MustNew(16, 16), VCs: 10, BufDepth: 4, Speedup: 2,
		Alg: routing.MustNew("dor"), Rand: rand.New(rand.NewSource(1))}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			network.New(net, nil)
		}
	})
	if perNode := res.AllocedBytesPerOp() / 256; perNode > mostBytes {
		t.Errorf("network.New of a 16x16 DOR fabric allocates %d B per node, want at most %d", perNode, mostBytes)
	}

	// A whole simulation: the Table 2 router on the 16×16 mesh of Figure 8
	// with a uniform injector, built as every sweep cell builds one.
	cfg := nocsim.DefaultConfig()
	cfg.Width, cfg.Height, cfg.Algorithm = 16, 16, "dor"
	const most = 32 // measured; 11,801 when each node allocated its own arrays
	got := testing.AllocsPerRun(10, func() {
		inj, err := nocsim.NewPatternInjector(cfg, "uniform", 0.05, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nocsim.New(cfg, inj); err != nil {
			t.Fatal(err)
		}
	})
	if got > most {
		t.Errorf("nocsim.New of a 16x16 DOR simulation with a pattern injector makes %v allocations, want at most %d", got, most)
	}
}

// TestRecycledRunAllocatesResidual pins what a run costs once the fabric
// is recycled (DESIGN.md, "Recycling"): after the first nocsim.Run of
// the benchmark's uniform_mid op (8×8 Table 2, Footprint, uniform 0.30,
// 400/800/3000 cycles) has built a fabric, each later one builds on that
// memory and allocates only what it does not recycle: the Simulation and
// Network structs, the injector, the metrics and the Result. The same
// run on new memory allocates 649,380 B in 65 objects.
func TestRecycledRunAllocatesResidual(t *testing.T) {
	const (
		mostAllocs = 30   // measured 24 a run: a quarter of headroom
		mostBytes  = 4096 // measured 2,840 B a run: 44% of headroom
	)
	cfg := nocsim.DefaultConfig()
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 400, 800, 3000
	run := func() {
		if _, err := nocsim.Run(cfg, "uniform", 0.30); err != nil {
			t.Fatal(err)
		}
	}
	// As testing.AllocsPerRun does: one P, and a first run outside the
	// count, which here builds the fabric the counted runs recycle.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("a recycled run allocates %d objects, %d B", allocs, bytes)
	if allocs > mostAllocs || bytes > mostBytes {
		t.Errorf("a run on a recycled fabric allocates %d objects and %d B, want at most %d and %d",
			allocs, bytes, mostAllocs, mostBytes)
	}
}
