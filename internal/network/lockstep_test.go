package network_test

import (
	"fmt"
	"math/rand"
	"testing"

	"nocsim/internal/flit"
	"nocsim/internal/network"
	"nocsim/internal/router"
	"nocsim/internal/routing"
	"nocsim/internal/topo"
	"nocsim/internal/traffic"
)

// countingSource counts the draws made from the source it wraps, so the
// lockstep harness can compare how much randomness each fabric consumed.
type countingSource struct {
	src   rand.Source64
	draws int64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (c *countingSource) Int63() int64    { c.draws++; return c.src.Int63() }
func (c *countingSource) Uint64() uint64  { c.draws++; return c.src.Uint64() }
func (c *countingSource) Seed(seed int64) { c.src.Seed(seed) }

// lockstepSpec is one fabric configuration, built twice.
type lockstepSpec struct {
	alg                       string
	w, h, vcs, depth, speedup int
	slow                      map[int]int
	seed                      int64
}

// ejection is what the harness records of an ejected packet.
type ejection struct {
	id                  uint64
	inject, eject, hops int64
}

// lockstep steps network.Network and the reference fabric side by side on
// identical offers and fails the test at the first difference between
// them, naming its cycle, node, port, VC, field and both values.
type lockstep struct {
	t              testing.TB
	vcs            int
	net            *network.Network
	ref            *refFabric
	netRNG, refRNG *countingSource
	netOut, refOut []ejection
	ids            uint64 // packets offered
	ejected        int
}

func newLockstep(t testing.TB, s lockstepSpec) *lockstep {
	mesh := topo.MustNew(s.w, s.h)
	newAlg := func() routing.Algorithm { return routing.MustNew(s.alg) }
	l := &lockstep{t: t, vcs: s.vcs, netRNG: newCountingSource(s.seed), refRNG: newCountingSource(s.seed)}
	l.net = network.New(network.Config{
		Mesh: mesh, VCs: s.vcs, BufDepth: s.depth, Speedup: s.speedup, Alg: newAlg(),
		Rand: rand.New(l.netRNG), SlowEndpoints: s.slow,
	}, nil)
	l.ref = newRefFabric(mesh, s.vcs, s.depth, s.speedup, newAlg, rand.New(l.refRNG), s.slow)
	record := func(out *[]ejection) func(p *flit.Packet) {
		return func(p *flit.Packet) {
			*out = append(*out, ejection{p.ID, p.Inject, p.Eject, int64(p.Hops)})
		}
	}
	l.net.Sink, l.ref.sink = record(&l.netOut), record(&l.refOut)
	return l
}

// offer gives each fabric its own heap copy of one packet, born now.
func (l *lockstep) offer(src, dest, size int) {
	l.ids++
	p := flit.Packet{ID: l.ids, Src: src, Dest: dest, Size: size, Born: l.net.Now()}
	a, b := p, p
	l.net.Offer(&a)
	l.ref.offer(&b)
}

// step advances both fabrics one cycle and compares them; a panic in
// either ends the test as that cycle's difference.
func (l *lockstep) step() {
	cycle := l.net.Now()
	defer func() {
		if p := recover(); p != nil {
			l.t.Fatalf("cycle %d: panic: %v", cycle, p)
		}
	}()
	l.net.Step()
	l.ref.step()
	if msg := l.diff(); msg != "" {
		l.t.Fatalf("cycle %d: %s", cycle, msg)
	}
}

// drained reports that both fabrics hold no packet.
func (l *lockstep) drained() bool { return l.net.InFlight() == 0 && l.ref.inFlight == 0 }

// Field names of the compared input and output VC state.
var (
	inFields  = [...]string{"state", "buffered", "packet", "dest", "blocked", "outDir", "outVC", "reqDir", "routed"}
	outFields = [...]string{"allocated", "credits", "owner", "regOwner", "awaitTail"}
)

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// engineIn flattens an input VC snapshot into inFields.
func engineIn(s router.InVCState) [len(inFields)]int64 {
	state := int64(-1)
	switch s.State {
	case router.VCStateIdle:
		state = refIdle
	case router.VCStateRouting:
		state = refRouting
	case router.VCStateActive:
		state = refActive
	}
	return [...]int64{state, int64(s.Buffered), int64(s.PacketID), int64(s.PacketDest), s.Blocked,
		int64(s.OutDir), int64(s.OutVC), int64(s.ReqDir), b2i(s.Routed)}
}

// refIn flattens a reference input VC the way a snapshot reports it:
// blocked, routed and the requested port in the routing state only, the
// granted VC in the active state only.
func refIn(ivc *refInVC) [len(inFields)]int64 {
	f := [...]int64{int64(ivc.state), int64(len(ivc.buf)), 0, -1, 0, 0, 0, 0, 0}
	if len(ivc.buf) > 0 {
		f[2], f[3] = int64(ivc.buf[0].Packet.ID), int64(ivc.buf[0].Packet.Dest)
	}
	switch ivc.state {
	case refRouting:
		f[4], f[8] = ivc.blocked, b2i(ivc.routed)
		if ivc.routed {
			f[7] = int64(ivc.dec.Dir)
		}
	case refActive:
		f[5], f[6] = int64(ivc.outDir), int64(ivc.outVC)
	}
	return f
}

func engineOut(s router.OutVCState) [len(outFields)]int64 {
	return [...]int64{b2i(s.Allocated), int64(s.Credits), int64(s.Owner), int64(s.RegOwner), b2i(s.AwaitTailCredit)}
}

func refOut(o *refOutVC) [len(outFields)]int64 {
	return [...]int64{b2i(o.alloc), int64(o.credits), int64(o.owner), int64(o.regOwner), b2i(o.awaitTail)}
}

// diff describes the first difference between the two fabrics after a
// cycle, or returns "".
func (l *lockstep) diff() string {
	ne, re := len(l.netOut), len(l.refOut)
	for i := 0; i < max(ne, re); i++ {
		if i >= ne || i >= re {
			return fmt.Sprintf("ejected packets: engine %d, reference %d", ne, re)
		}
		if a, b := l.netOut[i], l.refOut[i]; a != b {
			return fmt.Sprintf("ejection %d (id, inject, eject, hops): engine %v, reference %v", i, a, b)
		}
	}
	l.ejected += ne
	l.netOut, l.refOut = l.netOut[:0], l.refOut[:0]
	for _, g := range []struct {
		field string
		a, b  int64
	}{
		{"now", l.net.Now(), l.ref.now},
		{"in flight", int64(l.net.InFlight()), int64(l.ref.inFlight)},
		{"rng draws", l.netRNG.draws, l.refRNG.draws},
	} {
		if g.a != g.b {
			return fmt.Sprintf("%s: engine %d, reference %d", g.field, g.a, g.b)
		}
	}
	for id, rr := range l.ref.routers {
		r, e, re := l.net.Router(id), l.net.Endpoint(id), l.ref.eps[id]
		for d := topo.East; d <= topo.Local; d++ {
			for v := 0; v < l.vcs; v++ {
				if a, b := engineIn(r.InputVCSnapshot(d, v)), refIn(&rr.in[d][v]); a != b {
					return fieldDiff(id, d, v, "input", inFields[:], a[:], b[:])
				}
				if a, b := engineOut(r.OutputVCSnapshot(d, v)), refOut(&rr.out[d][v]); a != b {
					return fieldDiff(id, d, v, "output", outFields[:], a[:], b[:])
				}
			}
			for _, c := range []struct {
				field string
				a, b  int64
			}{
				{"output flits", r.OutputFlits(d), rr.outFlits[d]},
				{"credit stalls", r.CreditStalls(d), rr.creditStalls[d]},
				{"crossbar grants", r.CrossbarGrants(d), rr.xbarGrants[d]},
			} {
				if c.a != c.b {
					return fmt.Sprintf("node %d port %v: %s: engine %d, reference %d", id, d, c.field, c.a, c.b)
				}
			}
		}
		if a, b := r.VCAllocFailures(), rr.vcAllocFails; a != b {
			return fmt.Sprintf("node %d: VC allocation failures: engine %d, reference %d", id, a, b)
		}
		queue := len(re.queue)
		if re.cur != nil {
			queue++
		}
		if a := e.QueueLen(); a != queue {
			return fmt.Sprintf("node %d: endpoint queue: engine %d, reference %d", id, a, queue)
		}
		for v := 0; v < l.vcs; v++ {
			if a, b := e.EjectionBacklog(v), len(re.ejBuf[v]); a != b {
				return fmt.Sprintf("node %d vc %d: ejection backlog: engine %d, reference %d", id, v, a, b)
			}
		}
		// The worklist skips a node whose router and endpoint report
		// Quiescent, so each must say so exactly when the model holds no
		// work there.
		if a, b := r.Quiescent(), refRouterIdle(rr); a != b {
			return fmt.Sprintf("node %d: router quiescent: engine %v, reference %v", id, a, b)
		}
		if a, b := e.Quiescent(), queue == 0 && refEjectionEmpty(re); a != b {
			return fmt.Sprintf("node %d: endpoint quiescent: engine %v, reference %v", id, a, b)
		}
	}
	return ""
}

// refRouterIdle reports that a reference router holds no work: every
// input VC idle and empty, every output stage empty.
func refRouterIdle(rr *refRouter) bool {
	for p := range rr.in {
		for v := range rr.in[p] {
			if rr.in[p][v].state != refIdle || len(rr.in[p][v].buf) > 0 {
				return false
			}
		}
		if len(rr.stage[p]) > 0 {
			return false
		}
	}
	return true
}

// refEjectionEmpty reports that a reference endpoint has no ejected flit
// waiting to be consumed.
func refEjectionEmpty(re *refEndpoint) bool {
	for _, buf := range re.ejBuf {
		if len(buf) > 0 {
			return false
		}
	}
	return true
}

// fieldDiff names the first differing field of one VC.
func fieldDiff(node int, d topo.Direction, v int, side string, names []string, a, b []int64) string {
	for i := range names {
		if a[i] != b[i] {
			return fmt.Sprintf("node %d port %v vc %d: %s %s: engine %d, reference %d", node, d, v, side, names[i], a[i], b[i])
		}
	}
	return ""
}

// lockstepShape is a traffic shape: the fabric it runs on (the algorithm
// aside) and the packets it offers each cycle, drawn from the harness's
// own RNG.
type lockstepShape struct {
	name  string
	spec  lockstepSpec
	offer func(l *lockstep, rng *rand.Rand, cycle int64)
}

// bernoulli offers, from each node in srcs, a packet with probability
// rate per cycle to dest(src) (skipped when that is src), sized by size.
func bernoulli(l *lockstep, rng *rand.Rand, srcs []int, rate float64, dest func(src int) int, size func() int) {
	for _, src := range srcs {
		if rng.Float64() < rate {
			if d := dest(src); d != src {
				l.offer(src, d, size())
			}
		}
	}
}

func lockstepShapes() []lockstepShape {
	m4, m8 := topo.MustNew(4, 4), topo.MustNew(8, 8)
	all := func(m topo.Mesh) []int {
		ns := make([]int, m.Nodes())
		for i := range ns {
			ns[i] = i
		}
		return ns
	}
	one := func() int { return 1 }
	return []lockstepShape{
		{"uniform", lockstepSpec{w: 4, h: 4, vcs: 4, depth: 4, speedup: 2, seed: 1}, func(l *lockstep, rng *rand.Rand, _ int64) {
			bernoulli(l, rng, all(m4), 0.3, func(int) int { return rng.Intn(16) }, one)
		}},
		{"transpose", lockstepSpec{w: 4, h: 4, vcs: 4, depth: 4, speedup: 2, seed: 2}, func(l *lockstep, rng *rand.Rand, _ int64) {
			transpose := func(src int) int { c := m4.Coord(src); return m4.Node(topo.Coord{X: c.Y, Y: c.X}) }
			bernoulli(l, rng, all(m4), 0.25/3.5, transpose, func() int { return 1 + rng.Intn(6) })
		}},
		{"hotspot", lockstepSpec{w: 8, h: 8, vcs: 10, depth: 4, speedup: 2, seed: 3}, func(l *lockstep, rng *rand.Rand, _ int64) {
			flows := traffic.HotspotFlows().Flows
			for src := 0; src < 64; src++ { // the map in node order
				if dest, ok := flows[src]; ok {
					bernoulli(l, rng, []int{src}, 0.5, func(int) int { return dest }, one)
				}
			}
			bernoulli(l, rng, traffic.BackgroundNodes(m8), 0.3, func(int) int { return rng.Intn(64) }, one)
		}},
		{"bursts", lockstepSpec{w: 4, h: 4, vcs: 4, depth: 4, speedup: 2, seed: 4}, func(l *lockstep, rng *rand.Rand, cycle int64) {
			if cycle%450 < 100 { // 100 cycles on, 350 off: the fabric falls asleep between bursts
				bernoulli(l, rng, all(m4), 0.15, func(int) int { return rng.Intn(16) }, func() int { return 1 + rng.Intn(5) })
			}
		}},
		// The byte-wide counters at their bounds. Three flows into an
		// endpoint that consumes every third cycle fill buffers of
		// router.MaxBufDepth flits, and credits run from 255 to 0.
		{"depth255", lockstepSpec{w: 2, h: 2, vcs: 2, depth: router.MaxBufDepth, speedup: 2, seed: 6, slow: map[int]int{3: 3}},
			func(l *lockstep, rng *rand.Rand, _ int64) {
				bernoulli(l, rng, []int{0, 1, 2}, 1, func(int) int { return 3 }, func() int { return 1 + rng.Intn(8) })
			}},
		// router.MaxVCs VCs, the widest masks, with three credits a
		// cycle on a link, one more than its inline array holds.
		{"vcs32-speedup3", lockstepSpec{w: 4, h: 4, vcs: router.MaxVCs, depth: 2, speedup: 3, seed: 7}, func(l *lockstep, rng *rand.Rand, _ int64) {
			bernoulli(l, rng, all(m4), 0.4/2.5, func(int) int { return rng.Intn(16) }, func() int { return 1 + rng.Intn(4) })
		}},
		// Three flows into an endpoint that never drains: the fabric wedges
		// and its routers sit blocked with work held.
		{"wedged", lockstepSpec{w: 2, h: 2, vcs: 2, depth: 4, speedup: 2, seed: 5, slow: map[int]int{3: 1 << 30}},
			func(l *lockstep, rng *rand.Rand, _ int64) {
				bernoulli(l, rng, []int{0, 1, 2}, 1, func(int) int { return 3 }, one)
			}},
	}
}

// TestLockstep holds the engine — worklist, busy-link list, port masks,
// mask-form VC allocation — to the reference fabric, cycle by cycle, for
// every routing algorithm on seven traffic shapes: single-flit uniform
// keeps most nodes awake, multi-flit transpose holds wormholes across
// sleeping neighbours, Table 3's hotspots past saturation block heads
// behind slow credits and contest VCs, on/off bursts put the whole
// fabric to sleep and wake it, two shapes put the byte counters and the
// VC masks at their bounds, and the wedged fixture stalls it with work
// held.
func TestLockstep(t *testing.T) {
	const cycles = 1400
	for _, alg := range routing.Names() {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			t.Parallel()
			for _, sh := range lockstepShapes() {
				sh := sh
				t.Run(sh.name, func(t *testing.T) {
					t.Parallel()
					spec := sh.spec
					spec.alg = alg
					l := newLockstep(t, spec)
					rng := rand.New(rand.NewSource(spec.seed))
					for cycle := int64(0); cycle < cycles; cycle++ {
						if cycle < 1000 {
							sh.offer(l, rng, cycle)
						}
						l.step()
					}
					if l.net.TotalOutputFlits() == 0 {
						t.Fatal("no flit moved: the comparison is vacuous")
					}
				})
			}
		})
	}
}

// FuzzLockstep runs fuzz-shaped fabrics and offer schedules in lockstep
// with the reference until both drain: meshes up to 6×6, 1–32 VCs (2 at
// least under an escape-VC algorithm), buffers of 1–8 flits, speedup 1–3,
// packets of 1–8 flits (longer than the buffers, often), an optional slow
// endpoint, and bursts separated by idle stretches long enough to sleep.
func FuzzLockstep(f *testing.F) {
	names := routing.Names()
	for i := range names { // one seed per algorithm
		seed := []byte{byte(i), 3, 3, 3, 2, 1, 5, 1, 4, 1, byte(i), 40, 90, 60, 20, 200, 10, 8, 255, 0}
		seed[1], seed[2], seed[3], seed[7] = byte(2+i%4), byte(3+i%3), byte(2+3*i), byte(i%2)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		s := lockstepSpec{alg: names[next()%len(names)]}
		s.w, s.h = 1+next()%6, 1+next()%6
		if s.w*s.h < 2 {
			s.w = 2
		}
		s.vcs = 1 + next()%32
		if s.vcs < 2 && routing.MustNew(s.alg).UsesEscape() {
			s.vcs = 2
		}
		s.depth, s.speedup = 1+next()%8, 1+next()%3
		maxSize := 1 + next()%8
		nodes := s.w * s.h
		if next()%2 == 1 {
			s.slow = map[int]int{next() % nodes: 2 + next()%3}
		}
		s.seed = int64(next())
		l := newLockstep(t, s)
		rng := rand.New(rand.NewSource(s.seed))

		// Up to six phases of (burst length, offer rate, idle length), and
		// at most 300 packets, so every input drains in bounded time.
		const maxPackets = 300
		for phase := 0; phase < 6 && len(data) > 0; phase++ {
			burst, rate, idle := 1+next()%64, float64(next())/255, 2*next()
			for c := 0; c < burst+idle; c++ {
				for src := 0; c < burst && src < nodes && l.ids < maxPackets; src++ {
					if rng.Float64() < rate {
						if dest := rng.Intn(nodes); dest != src {
							l.offer(src, dest, 1+rng.Intn(maxSize))
						}
					}
				}
				l.step()
			}
		}
		for budget := 0; !l.drained(); budget++ {
			if budget == 20000 {
				t.Fatalf("%+v: %d packets still in flight after 20000 drain cycles", s, l.net.InFlight())
			}
			l.step()
		}
	})
}
