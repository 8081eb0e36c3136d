package router

import (
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"nocsim/internal/alloc"
	"nocsim/internal/flit"
	"nocsim/internal/routing"
	"nocsim/internal/topo"
)

// scriptAlg issues fixed requests per destination, for microarchitecture
// unit tests.
type scriptAlg struct {
	reqs   map[int][]routing.Request
	escape bool
}

func (s *scriptAlg) UsesEscape() bool { return s.escape }
func (s *scriptAlg) Route(ctx *routing.Context, out []routing.Request) []routing.Request {
	return append(out, s.reqs[ctx.Dest]...)
}

// Decide is the scripted requests (all on one port) in mask form; with
// escape set, a request for VC 0 at Lowest is the escape, on any port.
func (s *scriptAlg) Decide(ctx *routing.Context) routing.Decision {
	var dec routing.Decision
	for _, rq := range s.reqs[ctx.Dest] {
		if s.escape && rq.VC == 0 && rq.Pri == alloc.Lowest {
			dec.Esc, dec.HasEsc = rq.Dir, true
			continue
		}
		dec.Dir = rq.Dir
		dec.Pri[rq.Pri] |= 1 << uint(rq.VC)
	}
	return dec
}

// testNodes builds the routers and endpoints of a 4x4 fabric with vcs
// VCs and four-flit buffers, no channel attached.
func testNodes(alg routing.Algorithm, vcs int) ([]Router, []Endpoint) {
	return NewNodes(Config{Mesh: topo.MustNew(4, 4), VCs: vcs, BufDepth: 4,
		Speedup: 2, Alg: alg, Rand: rand.New(rand.NewSource(1))}, flit.NewArena(), nil)
}

// testRouter is node 5 of testNodes with a test channel on every port.
func testRouter(t *testing.T, alg routing.Algorithm, vcs int) (*Router, map[topo.Direction]*Channel, map[topo.Direction]*Channel) {
	t.Helper()
	rs, _ := testNodes(alg, vcs)
	r := &rs[5]
	ins := map[topo.Direction]*Channel{}
	outs := map[topo.Direction]*Channel{}
	for d := topo.East; d <= topo.Local; d++ {
		ins[d] = testChannel()
		outs[d] = testChannel()
		r.AttachIn(d, ins[d])
		r.AttachOut(d, outs[d])
	}
	return r, ins, outs
}

// testChannel returns a channel reporting to lists of its own.
func testChannel() *Channel {
	return new(Channel).Init(&Links{Wake: make([]uint64, 1)})
}

// sent takes the flit staged on ch, and returned the credits, as the
// delivery pass does before handing them to an end: a test reads them in
// the place of an end it did not attach. Nothing reads a test channel's
// own busy list, so neither takes the channel off it.
func sent(ch *Channel) *flit.Flit {
	f := ch.flit
	ch.flit = nil
	return f
}

func returned(ch *Channel) []flit.Credit {
	crs := append([]flit.Credit(nil), ch.credits...)
	ch.credits = ch.credits[:0]
	return crs
}

// receive hands r what was staged on its channels — flits on the inputs,
// credits on the outputs — as the delivery pass does inside a network,
// where the far ends are attached too.
func receive(r *Router) {
	for p := 0; p < topo.NumPorts; p++ {
		if f := sent(r.inCh[p]); f != nil {
			r.acceptFlit(p, f)
		}
		r.acceptCredits(p, returned(r.outCh[p]))
	}
}

// segment splits p into heap flits, as an endpoint injects them.
func segment(p *flit.Packet) []*flit.Flit {
	fs := make([]*flit.Flit, p.Size)
	for i := range fs {
		fs[i] = &flit.Flit{Packet: p, Seq: i, Head: i == 0, Tail: i == p.Size-1}
	}
	return fs
}

func headFlit(id uint64, dest, size int) []*flit.Flit {
	return segment(&flit.Packet{ID: id, Src: 0, Dest: dest, Size: size})
}

// idle reports whether output VC (d, v) of r is idle, as routing reads it.
func idle(r *Router, d topo.Direction, v int) bool { return r.State().Idle[d]>>uint(v)&1 != 0 }

func TestNewValidation(t *testing.T) {
	alg := &scriptAlg{}
	cases := []Config{
		{Mesh: topo.MustNew(2, 2), VCs: 0, BufDepth: 4, Speedup: 1, Alg: alg},
		{Mesh: topo.MustNew(2, 2), VCs: 2, BufDepth: 0, Speedup: 1, Alg: alg},
		{Mesh: topo.MustNew(2, 2), VCs: 2, BufDepth: 4, Speedup: 0, Alg: alg},
		{Mesh: topo.MustNew(2, 2), VCs: 1, BufDepth: 4, Speedup: 1, Alg: &scriptAlg{escape: true}},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			NewNodes(cfg, nil, nil)
		}()
	}
}

func TestSingleFlitTraversal(t *testing.T) {
	alg := &scriptAlg{reqs: map[int][]routing.Request{
		6: {{Dir: topo.East, VC: 1, Pri: alloc.Low}},
	}}
	r, ins, outs := testRouter(t, alg, 2)
	f := headFlit(1, 6, 1)[0]
	f.VC = 0
	ins[topo.West].Send(f)

	receive(r)
	r.AllocateVCs(0)
	r.SwitchAndTraverse(0)

	got := sent(outs[topo.East])
	if got == nil {
		t.Fatal("flit did not traverse in one cycle")
	}
	if got.VC != 1 {
		t.Errorf("output VC = %d, want 1 (rewritten by VA)", got.VC)
	}
	// Credit for the freed input slot goes back upstream.
	crs := returned(ins[topo.West])
	if len(crs) != 1 || crs[0].VC != 0 || !crs[0].Tail {
		t.Errorf("upstream credit = %v", crs)
	}
}

func TestOwnerRegisterLifecycle(t *testing.T) {
	alg := &scriptAlg{reqs: map[int][]routing.Request{
		6: {{Dir: topo.East, VC: 1, Pri: alloc.Low}},
	}}
	r, ins, outs := testRouter(t, alg, 2)
	f := headFlit(1, 6, 1)[0]
	f.VC = 0
	ins[topo.West].Send(f)
	receive(r)
	r.AllocateVCs(0)
	if got := r.OutputVCSnapshot(topo.East, 1).Owner; got != 6 {
		t.Fatalf("owner after allocation = %d, want 6", got)
	}
	if idle(r, topo.East, 1) {
		t.Error("allocated VC reported idle")
	}
	r.SwitchAndTraverse(0)
	// Flit left; downstream must drain and return the credit before the
	// owner clears.
	if got := r.OutputVCSnapshot(topo.East, 1).Owner; got != 6 {
		t.Error("owner cleared before downstream drained")
	}
	outs[topo.East].SendCredit(flit.Credit{VC: 1, Tail: true})
	receive(r)
	if got := r.OutputVCSnapshot(topo.East, 1).Owner; got != -1 {
		t.Errorf("owner after drain = %d, want -1", got)
	}
	if !idle(r, topo.East, 1) {
		t.Error("drained VC not idle")
	}
}

func TestConservativeReallocWaitsForTailCredit(t *testing.T) {
	alg := &scriptAlg{
		reqs: map[int][]routing.Request{
			6: {{Dir: topo.East, VC: 1, Pri: alloc.Low}},
		},
		escape: true,
	}
	r, ins, outs := testRouter(t, alg, 2)
	f1 := headFlit(1, 6, 1)[0]
	f1.VC = 0
	ins[topo.West].Send(f1)
	receive(r)
	r.AllocateVCs(0)
	r.SwitchAndTraverse(0)

	// Second packet arrives wanting the same output VC.
	f2 := headFlit(2, 6, 1)[0]
	f2.VC = 1
	ins[topo.West].Send(f2)
	receive(r)
	r.AllocateVCs(0)
	if r.OutputVCSnapshot(topo.East, 1).Allocated {
		t.Fatal("VC reallocated before tail credit (conservative realloc broken)")
	}
	// Tail credit arrives; now reallocation may happen.
	outs[topo.East].SendCredit(flit.Credit{VC: 1, Tail: true})
	receive(r)
	r.AllocateVCs(0)
	if !r.OutputVCSnapshot(topo.East, 1).Allocated {
		t.Fatal("VC not reallocated after tail credit")
	}
}

func TestEagerReallocAfterTailSend(t *testing.T) {
	alg := &scriptAlg{
		reqs: map[int][]routing.Request{
			6: {{Dir: topo.East, VC: 1, Pri: alloc.Low}},
		},
	}
	r, ins, _ := testRouter(t, alg, 2)
	f1 := headFlit(1, 6, 1)[0]
	f1.VC = 0
	ins[topo.West].Send(f1)
	receive(r)
	r.AllocateVCs(0)
	r.SwitchAndTraverse(0)

	f2 := headFlit(2, 6, 1)[0]
	f2.VC = 1
	ins[topo.West].Send(f2)
	receive(r)
	r.AllocateVCs(0)
	if !r.OutputVCSnapshot(topo.East, 1).Allocated {
		t.Fatal("eager realloc should allow immediate reallocation after tail send")
	}
}

func TestWormholeHoldsVCForWholePacket(t *testing.T) {
	alg := &scriptAlg{reqs: map[int][]routing.Request{
		6: {{Dir: topo.East, VC: 0, Pri: alloc.Low}},
	}}
	r, ins, outs := testRouter(t, alg, 2)
	flits := headFlit(1, 6, 3)
	for i, f := range flits {
		f.VC = 0
		ins[topo.West].Send(f)
		receive(r)
		r.AllocateVCs(0)
		r.SwitchAndTraverse(0)
		got := sent(outs[topo.East])
		if got == nil {
			t.Fatalf("flit %d stalled", i)
		}
		if got.Seq != i {
			t.Fatalf("flit order broken: got seq %d at position %d", got.Seq, i)
		}
		midPacket := i < len(flits)-1
		if r.OutputVCSnapshot(topo.East, 0).Allocated != midPacket {
			t.Errorf("after flit %d: allocated=%v, want %v", i, !midPacket, midPacket)
		}
	}
}

// TestCreditsNeverExceedDepth: a credit for a VC whose credits are
// already at the buffer depth panics, at a router's output port and at an
// endpoint, and so does a flit pushed into a full input buffer. At
// MaxBufDepth a byte counter tested after its increment would wrap to 0
// and pass.
func TestCreditsNeverExceedDepth(t *testing.T) {
	for _, depth := range []int{4, MaxBufDepth} {
		rs, es := NewNodes(Config{Mesh: topo.MustNew(4, 4), VCs: 2, BufDepth: depth,
			Speedup: 2, Alg: &scriptAlg{}}, flit.NewArena(), nil)
		mustPanic := func(what string, f func()) {
			t.Helper()
			defer func() {
				if recover() == nil {
					t.Errorf("depth %d: %s not detected", depth, what)
				}
			}()
			f()
		}
		crs := []flit.Credit{{VC: 1}}
		mustPanic("router credit overflow", func() { rs[5].acceptCredits(int(topo.East), crs) })
		mustPanic("endpoint credit overflow", func() { es[5].acceptCredits(crs) })
		mustPanic("input buffer overflow", func() {
			for range depth + 1 {
				rs[5].bufPush(rs[5].idx(topo.West, 1), &flit.Flit{})
			}
		})
	}
}

func TestEjectionRequestsLocalPort(t *testing.T) {
	alg := &scriptAlg{}
	r, ins, outs := testRouter(t, alg, 2)
	f := headFlit(1, 5, 1)[0] // dest == NodeID
	f.VC = 0
	ins[topo.West].Send(f)
	receive(r)
	r.AllocateVCs(0)
	r.SwitchAndTraverse(0)
	if sent(outs[topo.Local]) == nil {
		t.Fatal("packet for this node not sent to the local port")
	}
}

func TestInputVCBlockedCounter(t *testing.T) {
	// A packet whose only requested VC is held must accumulate blocked
	// cycles.
	alg := &scriptAlg{reqs: map[int][]routing.Request{
		6: {{Dir: topo.East, VC: 0, Pri: alloc.Low}},
	}}
	r, ins, _ := testRouter(t, alg, 2)
	b := headFlit(9, 6, 2)[0] // multi-flit: holds the VC
	b.VC = 0
	ins[topo.West].Send(b)
	receive(r)
	r.AllocateVCs(0)
	f := headFlit(1, 6, 1)[0]
	f.VC = 1
	ins[topo.West].Send(f)
	receive(r)
	for i := 0; i < 3; i++ {
		r.AllocateVCs(0)
	}
	if got := r.InputVCSnapshot(topo.West, 1).Blocked; got != 3 {
		t.Errorf("blocked = %d, want 3", got)
	}
	if got := r.InputVCSnapshot(topo.West, 0).Blocked; got != 0 {
		t.Errorf("active VC blocked = %d, want 0", got)
	}
}

func TestSpeedupMovesTwoFlitsPerCycle(t *testing.T) {
	// Two packets on different input VCs to different output VCs: with
	// speedup 2 both traverse in one cycle.
	alg := &scriptAlg{reqs: map[int][]routing.Request{
		6: {{Dir: topo.East, VC: 0, Pri: alloc.Low}},
		9: {{Dir: topo.South, VC: 0, Pri: alloc.Low}},
	}}
	r, ins, outs := testRouter(t, alg, 2)
	fa := headFlit(1, 6, 1)[0]
	fa.VC = 0
	fb := headFlit(2, 9, 1)[0]
	fb.VC = 1
	ins[topo.West].Send(fa)
	ins[topo.North].Send(fb)
	receive(r)
	r.AllocateVCs(0)
	r.SwitchAndTraverse(0)
	if sent(outs[topo.East]) == nil || sent(outs[topo.South]) == nil {
		t.Error("speedup-2 router failed to move two flits in one cycle")
	}
}

// routingHeads counts r's input VCs in the routing state.
func routingHeads(r *Router) int {
	n := 0
	for _, m := range r.routingMask {
		n += bits.OnesCount32(m)
	}
	return n
}

// TestBlockedHeadsAllocateNothing fills the output ports of a router,
// under every routing algorithm, from all-idle through the congestion
// thresholds to saturated, and holds that re-deciding and re-requesting
// for the head flits left blocked allocates nothing: a decision is a few
// masks stored in place, and a blocked head submits no requests.
func TestBlockedHeadsAllocateNothing(t *testing.T) {
	// From node 5 = (1,1): two productive ports, X only, Y only, eject.
	// Only East, South and Local are ever requested, so at most 3·VCs of
	// the 5·VCs head flits can be granted and the rest stay blocked.
	dests := []int{15, 7, 13, 5}
	for _, name := range routing.Names() {
		for _, vcs := range []int{2, 10, 32} {
			r, ins, _ := testRouter(t, routing.MustNew(name), vcs)
			// One head flit per input port per cycle. The tails never
			// arrive, so granted output VCs stay held and the ports fill.
			id := uint64(0)
			for v := 0; v < vcs; v++ {
				for d := topo.East; d <= topo.Local; d++ {
					f := headFlit(id, dests[int(id)%len(dests)], 2)[0]
					f.VC = v
					id++
					ins[d].Send(f)
				}
				receive(r)
				r.AllocateVCs(0)
			}
			for i := 0; i < 4; i++ {
				r.AllocateVCs(0)
			}
			if n := routingHeads(r); n < 2*vcs {
				t.Fatalf("%s vcs=%d: %d blocked head flits, want at least %d",
					name, vcs, n, 2*vcs)
			}
			if n := testing.AllocsPerRun(50, func() { r.AllocateVCs(0) }); n != 0 {
				t.Errorf("%s vcs=%d: AllocateVCs on blocked head flits allocates %v times per call, want 0",
					name, vcs, n)
			}
		}
	}
}

// TestAllocationFormFollowsContention delivers pairs of heads to a fresh
// router and holds that the pair is resolved in mask form exactly when no
// output VC is requested twice, and that either form grants what
// alloc.Allocate grants on the scripted requests in list form (ascending
// VC, escape last, in requester order) — the contested pairs through the
// list path the router had before it had two.
func TestAllocationFormFollowsContention(t *testing.T) {
	E, S := topo.East, topo.South
	cases := []struct {
		name     string
		script   map[int][]routing.Request // by destination; 6 arrives on West, 9 on North
		listPath bool
	}{
		{"disjoint VCs of one port", map[int][]routing.Request{
			6: {{Dir: E, VC: 1, Pri: alloc.High}, {Dir: E, VC: 2, Pri: alloc.Low}},
			9: {{Dir: E, VC: 3, Pri: alloc.Low}}}, false},
		{"different ports, one escape", map[int][]routing.Request{
			6: {{Dir: E, VC: 1, Pri: alloc.Low}, {Dir: E, VC: 0, Pri: alloc.Lowest}},
			9: {{Dir: S, VC: 1, Pri: alloc.Low}}}, false},
		{"same port, same VCs", map[int][]routing.Request{
			6: {{Dir: E, VC: 1, Pri: alloc.Low}, {Dir: E, VC: 2, Pri: alloc.Low}},
			9: {{Dir: E, VC: 1, Pri: alloc.High}, {Dir: E, VC: 2, Pri: alloc.Low}}}, true},
		{"different ports, shared escape", map[int][]routing.Request{
			6: {{Dir: E, VC: 1, Pri: alloc.Low}, {Dir: E, VC: 0, Pri: alloc.Lowest}},
			9: {{Dir: S, VC: 1, Pri: alloc.Low}, {Dir: E, VC: 0, Pri: alloc.Lowest}}}, true},
		{"escape is the other head's adaptive VC", map[int][]routing.Request{
			6: {{Dir: S, VC: 1, Pri: alloc.Low}, {Dir: E, VC: 0, Pri: alloc.Lowest}},
			9: {{Dir: E, VC: 0, Pri: alloc.Low}, {Dir: E, VC: 1, Pri: alloc.Low}}}, true},
	}
	for _, c := range cases {
		r, ins, _ := testRouter(t, &scriptAlg{reqs: c.script, escape: true}, 4)
		var reqs []alloc.VCRequest
		for _, h := range []struct {
			in   topo.Direction
			dest int
		}{{topo.West, 6}, {topo.North, 9}} { // ascending requester index
			f := headFlit(uint64(h.dest), h.dest, 2)[0]
			f.VC = 1
			ins[h.in].Send(f)
			for _, rq := range c.script[h.dest] {
				reqs = append(reqs, alloc.VCRequest{Requester: r.idx(h.in, 1), Resource: r.idx(rq.Dir, rq.VC), Pri: rq.Pri})
			}
		}
		receive(r)
		r.AllocateVCs(0)
		if got := len(r.sc.reqs) != 0; got != c.listPath {
			t.Errorf("%s: request list built = %v, want %v", c.name, got, c.listPath)
		}
		want := alloc.NewVCAllocator(5*4, 5*4).Allocate(reqs)
		if n := routingHeads(r); len(want)+n != 2 {
			t.Errorf("%s: %d heads left routing after %d grants", c.name, n, len(want))
		}
		for _, g := range want {
			if r.inState[g.Requester] != vcActive || r.outIdx(g.Requester) != g.Resource {
				t.Errorf("%s: input VC %d holds %v VC %d (state %d), Allocate grants resource %d", c.name,
					g.Requester, r.inOutDir[g.Requester], r.inOutVC[g.Requester], r.inState[g.Requester], g.Resource)
			}
		}
	}
}

// TestSlabsCutExactly: newSlabs sizes every slab for exactly the arrays
// the routers, their shared VC-allocation scratch and the endpoints cut
// from it, so after building them each slab is used up — a size too small panics in a cut, one too large is memory
// nobody reads — for every shape of the sizes: one VC and the most, one-
// and four-flit buffers, with and without Footprint's owner index, on new
// memory and on the larger slabs of a finished fabric.
func TestSlabsCutExactly(t *testing.T) {
	var larger slabs
	newSlabs(Config{Mesh: topo.MustNew(4, 4), VCs: MaxVCs, BufDepth: MaxBufDepth, Alg: routing.MustNew("footprint")}, &larger)
	for _, alg := range []string{"dor", "footprint"} {
		for _, vcs := range []int{1, 2, 10, MaxVCs} {
			for _, depth := range []int{1, 4, MaxBufDepth} {
				if vcs < 2 && alg == "footprint" {
					continue
				}
				cfg := Config{Mesh: topo.MustNew(3, 2), VCs: vcs, BufDepth: depth, Speedup: 2, Alg: routing.MustNew(alg)}
				for _, old := range []slabs{{}, larger} {
					s := newSlabs(cfg, &old)
					sc := newVAScratch(vcs, &s)
					for id := 0; id < cfg.Mesh.Nodes(); id++ {
						cfg.NodeID = id
						new(Router).init(cfg, &s, sc)
						new(Endpoint).init(id, vcs, depth, nil, &s)
					}
					v := reflect.ValueOf(s)
					for i := 0; i < v.NumField(); i++ {
						if left := v.Field(i).Len(); left != 0 {
							t.Errorf("%s, %d VCs, depth %d: slab %s has %d elements left", alg, vcs, depth, v.Type().Field(i).Name, left)
						}
					}
				}
			}
		}
	}
}
