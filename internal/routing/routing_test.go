package routing

import (
	"math/rand"
	"testing"

	"nocsim/internal/alloc"
	"nocsim/internal/topo"
)

// fakeView is a scriptable routing View for unit tests: owner, regOwner
// and downstream are the script, and at builds the State they describe
// for a router at a given node, which is what the algorithm then reads.
type fakeView struct {
	numVCs int
	// owner[d][v] is the VC owner destination, -1 when idle. A VC owned
	// by a node that is not on the mesh is just busy.
	owner map[topo.Direction][]int
	// regOwner[d][v] is the persistent footprint register; defaults to
	// mirroring owner when unset.
	regOwner   map[topo.Direction][]int
	downstream map[topo.Direction]int
	// st is the State at last built from the script.
	st *State
}

func newFakeView(numVCs int) *fakeView {
	fv := &fakeView{
		numVCs:     numVCs,
		owner:      map[topo.Direction][]int{},
		downstream: map[topo.Direction]int{},
	}
	for d := topo.East; d <= topo.Local; d++ {
		o := make([]int, numVCs)
		for i := range o {
			o[i] = -1
		}
		fv.owner[d] = o
	}
	return fv
}

// regOwnerOf returns the persistent footprint register of VC v of port d.
func (f *fakeView) regOwnerOf(d topo.Direction, v int) int {
	if ro, ok := f.regOwner[d]; ok && ro[v] != -1 {
		return ro[v]
	}
	return f.owner[d][v]
}

// at builds the State the script describes for the router of node cur on
// m, as alg's router would hold it — with an owner index only if alg's
// decisions read one, so an algorithm reading an index it was not given
// panics — and returns f.
func (f *fakeView) at(m topo.Mesh, cur int, alg Algorithm) *fakeView {
	st := NewState(m, cur, f.numVCs, alg)
	for d := topo.East; d <= topo.Local; d++ {
		for v, o := range f.owner[d] {
			if o >= 0 {
				st.Idle[d] &^= 1 << uint(v)
			}
			if o >= 0 && o < m.Nodes() {
				st.SetOwner(d, v, o)
			}
			st.RegOwner[int(d)*f.numVCs+v] = int32(f.regOwnerOf(d, v))
		}
	}
	f.st = &st
	return f
}

func (f *fakeView) State() *State { return f.st }

func (f *fakeView) DownstreamIdle(d topo.Direction, _ int) int { return f.downstream[d] }

// clone deep-copies the view, built State included, so a mutation by
// Route is detectable by comparing against the snapshot.
func (f *fakeView) clone() *fakeView {
	c := &fakeView{
		numVCs:     f.numVCs,
		owner:      map[topo.Direction][]int{},
		downstream: map[topo.Direction]int{},
	}
	for d, o := range f.owner {
		c.owner[d] = append([]int(nil), o...)
	}
	if f.regOwner != nil {
		c.regOwner = map[topo.Direction][]int{}
		for d, o := range f.regOwner {
			c.regOwner[d] = append([]int(nil), o...)
		}
	}
	for d, n := range f.downstream {
		c.downstream[d] = n
	}
	if f.st != nil {
		st := *f.st
		st.Owner = append([]int32(nil), st.Owner...)
		st.Owners = append([]uint32(nil), st.Owners...)
		st.RegOwner = append([]int32(nil), st.RegOwner...)
		c.st = &st
	}
	return c
}

// route returns alg's requests at node cur for a freshly injected packet
// to dest, against the State fv scripts.
func route(alg Algorithm, m topo.Mesh, cur, dest int, fv *fakeView) []Request {
	return alg.Route(&Context{
		Mesh: m, Cur: cur, Dest: dest, InDir: topo.Local,
		View: fv.at(m, cur, alg), Rand: rand.New(rand.NewSource(42)),
	}, nil)
}

func reqsByDir(reqs []Request) map[topo.Direction][]Request {
	m := map[topo.Direction][]Request{}
	for _, r := range reqs {
		m[r.Dir] = append(m[r.Dir], r)
	}
	return m
}

func TestRegistryHasAllAlgorithms(t *testing.T) {
	want := []string{
		"dbar", "dbar+voqsw", "dbar+xordet",
		"dor", "dor+voqsw", "dor+xordet",
		"footprint",
		"oddeven", "oddeven+voqsw", "oddeven+xordet",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	for _, n := range want {
		a, err := New(n)
		if err != nil {
			t.Errorf("New(%q): %v", n, err)
			continue
		}
		// The first adaptive VC: 1 exactly when VC 0 is the escape.
		wantLo := 0
		if a.UsesEscape() {
			wantLo = 1
		}
		if lo := NewState(topo.MustNew(4, 4), 0, 4, a).Lo; lo != wantLo {
			t.Errorf("%s: State.Lo = %d, want %d", n, lo, wantLo)
		}
	}
}

func TestRegistryUnknown(t *testing.T) {
	if _, err := New("nope"); err == nil {
		t.Error("New(nope) should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew(nope) did not panic")
		}
	}()
	MustNew("nope")
}

func TestDORRoute(t *testing.T) {
	m := topo.MustNew(4, 4)
	fv := newFakeView(4)
	// 0 -> 10 = (2,2): DOR must go East first.
	reqs := route(NewDOR(), m, 0, 10, fv)
	byDir := reqsByDir(reqs)
	if len(byDir) != 1 || len(byDir[topo.East]) != 4 {
		t.Fatalf("DOR requests = %v", reqs)
	}
	for _, r := range byDir[topo.East] {
		if r.Pri != alloc.Low {
			t.Errorf("DOR priority = %v, want Low", r.Pri)
		}
	}
	// Same column: go South.
	reqs = route(NewDOR(), m, 2, 14, fv)
	if d := reqs[0].Dir; d != topo.South {
		t.Errorf("DOR dir = %v, want S", d)
	}
}

func TestDORFlags(t *testing.T) {
	d := NewDOR()
	if d.UsesEscape() {
		t.Error("DOR should not use escape VCs")
	}
}

// forbiddenTurn reports whether moving from heading `in` (the travel
// direction) to out is an odd-even-forbidden turn at column x.
func forbiddenTurn(in, out topo.Direction, x int) bool {
	evenCol := x%2 == 0
	switch {
	case in == topo.East && (out == topo.North || out == topo.South):
		return evenCol // EN, ES forbidden at even columns
	case (in == topo.North || in == topo.South) && out == topo.West:
		return !evenCol // NW, SW forbidden at odd columns
	}
	return false
}

func TestOddEvenNoForbiddenTurns(t *testing.T) {
	m := topo.MustNew(8, 8)
	oe := NewOddEven()
	for src := 0; src < m.Nodes(); src++ {
		for dst := 0; dst < m.Nodes(); dst++ {
			if src == dst {
				continue
			}
			// Walk every allowed branch with DFS, checking turns.
			type state struct {
				node  int
				inDir topo.Direction
			}
			stack := []state{{src, topo.Local}}
			seen := map[state]bool{}
			for len(stack) > 0 {
				s := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if s.node == dst || seen[s] {
					continue
				}
				seen[s] = true
				dirs, n := oe.allowedDirs(m, s.node, dst, s.inDir)
				if n == 0 {
					t.Fatalf("odd-even dead end at %d toward %d", s.node, dst)
				}
				for _, d := range dirs[:n] {
					heading := s.inDir.Opposite() // travel direction
					if s.inDir != topo.Local && forbiddenTurn(heading, d, m.Coord(s.node).X) {
						t.Fatalf("forbidden turn %v->%v at node %d (col %d), dst %d",
							heading, d, s.node, m.Coord(s.node).X, dst)
					}
					next, ok := m.Neighbor(s.node, d)
					if !ok {
						t.Fatalf("odd-even routed off-mesh at %d dir %v", s.node, d)
					}
					if m.Hops(next, dst) != m.Hops(s.node, dst)-1 {
						t.Fatalf("odd-even non-minimal move %d->%d toward %d", s.node, next, dst)
					}
					stack = append(stack, state{next, d.Opposite()})
				}
			}
		}
	}
}

func TestOddEvenSelectsByIdleVCs(t *testing.T) {
	m := topo.MustNew(8, 8)
	fv := newFakeView(4)
	// From node 9=(1,1) to 27=(3,3): odd column 1 allows E and S.
	// Make South look congested.
	for v := 0; v < 4; v++ {
		fv.owner[topo.South][v] = 99
	}
	reqs := route(NewOddEven(), m, 9, 27, fv)
	for _, r := range reqs {
		if r.Dir != topo.East {
			t.Fatalf("odd-even chose %v with South congested; reqs=%v", r.Dir, reqs)
		}
	}
}

func TestDBARPrefersUncongestedPort(t *testing.T) {
	m := topo.MustNew(8, 8)
	fv := newFakeView(10)
	// 9=(1,1) -> 27=(3,3): candidates E and S. Congest East locally
	// (fewer than half idle).
	for v := 0; v < 7; v++ {
		fv.owner[topo.East][v] = 50
	}
	reqs := route(NewDBAR(), m, 9, 27, fv)
	byDir := reqsByDir(reqs)
	if len(byDir[topo.South]) != 9 {
		t.Fatalf("DBAR should request 9 adaptive VCs on South, got %v", reqs)
	}
	// Escape request: VC0 on the DOR port (East) at Lowest.
	escs := byDir[topo.East]
	if len(escs) != 1 || escs[0].VC != 0 || escs[0].Pri != alloc.Lowest {
		t.Fatalf("DBAR escape request wrong: %v", escs)
	}
}

func TestDBARUsesDownstreamInfo(t *testing.T) {
	m := topo.MustNew(8, 8)
	fv := newFakeView(10)
	// Neither port congested locally; downstream South much freer.
	fv.downstream[topo.East] = 1
	fv.downstream[topo.South] = 8
	reqs := route(NewDBAR(), m, 9, 27, fv)
	for _, r := range reqs {
		if r.VC != 0 && r.Dir != topo.South {
			t.Fatalf("DBAR ignored downstream congestion: %v", reqs)
		}
	}
}

func TestDBARNeverRequestsEscapeAsAdaptive(t *testing.T) {
	m := topo.MustNew(8, 8)
	fv := newFakeView(4)
	reqs := route(NewDBAR(), m, 0, 63, fv)
	for _, r := range reqs {
		if r.VC == 0 && r.Pri != alloc.Lowest {
			t.Errorf("VC0 requested at %v", r.Pri)
		}
	}
}

func TestFootprintUncongestedUsesAllAdaptive(t *testing.T) {
	m := topo.MustNew(8, 8)
	fv := newFakeView(10) // all idle
	reqs := route(NewFootprint(), m, 9, 27, fv)
	adaptive := 0
	for _, r := range reqs {
		if r.VC != 0 {
			adaptive++
			if r.Pri != alloc.Low {
				t.Errorf("uncongested request at %v, want Low", r.Pri)
			}
		}
	}
	if adaptive != 9 {
		t.Errorf("adaptive requests = %d, want 9", adaptive)
	}
}

func TestFootprintSaturatedFollowsFootprints(t *testing.T) {
	m := topo.MustNew(8, 8)
	fv := newFakeView(4)
	dest := 27
	// Saturate both candidate ports (E, S from node 9); East VC2 is a
	// footprint VC for dest, everything else owned by strangers.
	for v := 1; v < 4; v++ {
		fv.owner[topo.East][v] = 50
		fv.owner[topo.South][v] = 51
	}
	fv.owner[topo.East][2] = dest
	reqs := route(NewFootprint(), m, 9, dest, fv)
	var fpReqs []Request
	for _, r := range reqs {
		if r.Pri == alloc.High {
			fpReqs = append(fpReqs, r)
		}
	}
	if len(fpReqs) != 1 || fpReqs[0].Dir != topo.East || fpReqs[0].VC != 2 {
		t.Fatalf("saturated footprint requests = %v, want exactly East VC2", fpReqs)
	}
	// No Low requests for other busy VCs when footprints exist and the
	// port is saturated.
	for _, r := range reqs {
		if r.Pri == alloc.Low {
			t.Errorf("saturated port with footprint still requested busy VC: %v", r)
		}
	}
}

func TestFootprintSaturatedNoFootprintFallsBack(t *testing.T) {
	m := topo.MustNew(8, 8)
	fv := newFakeView(4)
	for d := topo.East; d <= topo.South; d++ {
		for v := 1; v < 4; v++ {
			fv.owner[d][v] = 50
		}
	}
	reqs := route(NewFootprint(), m, 9, 27, fv)
	adaptive := 0
	for _, r := range reqs {
		if r.VC != 0 {
			adaptive++
			if r.Pri != alloc.Low {
				t.Errorf("fallback request at %v, want Low", r.Pri)
			}
		}
	}
	if adaptive != 3 {
		t.Errorf("adaptive fallback requests = %d, want 3", adaptive)
	}
}

func TestFootprintMidLoadPriorityLadder(t *testing.T) {
	m := topo.MustNew(8, 8)
	fv := newFakeView(10)
	dest := 27
	// On East: 1 idle-deficit — make 8 of 9 adaptive VCs busy so
	// idle=1 (< threshold 5, > 0). VC3 is a footprint.
	for v := 1; v < 9; v++ {
		fv.owner[topo.East][v] = 50
	}
	fv.owner[topo.East][3] = dest
	// South fully busy so East is chosen (more idle VCs).
	for v := 1; v < 10; v++ {
		fv.owner[topo.South][v] = 51
	}
	reqs := route(NewFootprint(), m, 9, dest, fv)
	got := map[int]alloc.Priority{}
	for _, r := range reqs {
		if r.Dir == topo.East && r.VC != 0 {
			got[r.VC] = r.Pri
		}
	}
	// This packet HAS footprints on the port, so it is confined: fresh
	// idle VC9 at Low, occupied footprint VC3 at Medium, busy at Low.
	if got[9] != alloc.Low {
		t.Errorf("fresh idle VC9 priority = %v, want Low (confinement)", got[9])
	}
	if got[3] != alloc.Medium {
		t.Errorf("occupied footprint VC3 priority = %v, want Medium", got[3])
	}
	if got[1] != alloc.Low {
		t.Errorf("busy VC1 priority = %v, want Low", got[1])
	}
}

func TestFootprintMidLoadNoFootprintGetsIdleHigh(t *testing.T) {
	m := topo.MustNew(8, 8)
	fv := newFakeView(10)
	// Same port state but the packet has no footprints: idle VCs at
	// High (full adaptiveness preserved for unrelated traffic).
	for v := 1; v < 9; v++ {
		fv.owner[topo.East][v] = 50
		fv.owner[topo.South][v] = 51
	}
	fv.owner[topo.South][9] = 51
	reqs := route(NewFootprint(), m, 9, 27, fv)
	got := map[int]alloc.Priority{}
	for _, r := range reqs {
		if r.Dir == topo.East && r.VC != 0 {
			got[r.VC] = r.Pri
		}
	}
	if got[9] != alloc.High {
		t.Errorf("idle VC9 priority = %v, want High for footprint-less packet", got[9])
	}
}

func TestFootprintReclaimsRegisteredIdleVC(t *testing.T) {
	m := topo.MustNew(8, 8)
	fv := newFakeView(10)
	dest := 27
	// Mid-state: East VC2 is idle but its register still names dest (a
	// just-drained footprint channel); VC3 occupied by dest.
	fv.regOwner = map[topo.Direction][]int{}
	for d := topo.East; d <= topo.Local; d++ {
		ro := make([]int, 10)
		for i := range ro {
			ro[i] = -1
		}
		fv.regOwner[d] = ro
	}
	for v := 1; v < 9; v++ {
		fv.owner[topo.East][v] = 50
	}
	fv.owner[topo.East][2] = -1 // idle, register retained
	fv.regOwner[topo.East][2] = dest
	fv.owner[topo.East][3] = dest
	for v := 1; v < 10; v++ {
		fv.owner[topo.South][v] = 51
	}
	reqs := route(NewFootprint(), m, 9, dest, fv)
	got := map[int]alloc.Priority{}
	for _, r := range reqs {
		if r.Dir == topo.East && r.VC != 0 {
			got[r.VC] = r.Pri
		}
	}
	if got[2] != alloc.Highest {
		t.Errorf("registered idle VC2 priority = %v, want Highest (reclaim)", got[2])
	}
}

func TestFootprintPortSelectionByFootprintTieBreak(t *testing.T) {
	m := topo.MustNew(8, 8)
	fv := newFakeView(4)
	dest := 27
	// Equal idle counts (zero), but South has 2 footprints vs East 1.
	for v := 1; v < 4; v++ {
		fv.owner[topo.East][v] = 50
		fv.owner[topo.South][v] = 51
	}
	fv.owner[topo.East][1] = dest
	fv.owner[topo.South][1] = dest
	fv.owner[topo.South][2] = dest
	reqs := route(NewFootprint(), m, 9, dest, fv)
	for _, r := range reqs {
		if r.Pri == alloc.High && r.Dir != topo.South {
			t.Fatalf("footprint tie-break chose %v, want South: %v", r.Dir, reqs)
		}
	}
}

func TestFootprintAlwaysRequestsEscape(t *testing.T) {
	m := topo.MustNew(8, 8)
	fv := newFakeView(4)
	reqs := route(NewFootprint(), m, 9, 27, fv)
	found := false
	for _, r := range reqs {
		if r.VC == 0 && r.Pri == alloc.Lowest && r.Dir == topo.East {
			found = true // DOR port from 9 to 27 is East
		}
	}
	if !found {
		t.Errorf("no escape request in %v", reqs)
	}
}

func TestFootprintThresholdOverride(t *testing.T) {
	m := topo.MustNew(8, 8)
	fv := newFakeView(10)
	// 4 busy VCs -> idle = 5 = V/2: default treats as uncongested.
	for v := 1; v < 5; v++ {
		fv.owner[topo.East][v] = 50
		fv.owner[topo.South][v] = 50
	}
	fp := &Footprint{Threshold: 8}
	reqs := route(fp, m, 9, 27, fv)
	sawLadder := false
	for _, r := range reqs {
		// Ladder branch emits High (idle VCs for this footprint-less
		// packet); the uncongested branch emits only Low.
		if r.Pri == alloc.High {
			sawLadder = true
		}
	}
	if !sawLadder {
		t.Error("raised threshold should trigger the priority ladder")
	}
}

func TestFootprintDisablePriorities(t *testing.T) {
	m := topo.MustNew(8, 8)
	fv := newFakeView(10)
	for v := 1; v < 9; v++ {
		fv.owner[topo.East][v] = 50
		fv.owner[topo.South][v] = 50
	}
	fp := &Footprint{DisablePriorities: true}
	reqs := route(fp, m, 9, 27, fv)
	for _, r := range reqs {
		if r.Pri != alloc.Low && r.Pri != alloc.Lowest {
			t.Errorf("priorities not flattened: %v", r)
		}
	}
}

func TestXORDETClassStable(t *testing.T) {
	m := topo.MustNew(8, 8)
	for dest := 0; dest < m.Nodes(); dest++ {
		c1 := Class(m, dest, 10)
		c2 := Class(m, dest, 10)
		if c1 != c2 {
			t.Fatalf("class not deterministic for %d", dest)
		}
		if c1 < 0 || c1 >= 10 {
			t.Fatalf("class out of range: %d", c1)
		}
	}
}

func TestXORDETSingleVCRequest(t *testing.T) {
	m := topo.MustNew(8, 8)
	fv := newFakeView(10)
	x := MustNew("dor+xordet")
	reqs := route(x, m, 0, 27, fv)
	if len(reqs) != 1 {
		t.Fatalf("dor+xordet requests = %v, want exactly one", reqs)
	}
	if want := Class(m, 27, 10); reqs[0].VC != want {
		t.Errorf("VC = %d, want class %d", reqs[0].VC, want)
	}
}

func TestXORDETWithDBARKeepsEscape(t *testing.T) {
	m := topo.MustNew(8, 8)
	fv := newFakeView(10)
	x := MustNew("dbar+xordet")
	reqs := route(x, m, 9, 27, fv)
	var adaptive, escape int
	for _, r := range reqs {
		if r.VC == 0 && r.Pri == alloc.Lowest {
			escape++
		} else {
			adaptive++
			// Adaptive class must avoid VC0 (the escape VC).
			if r.VC == 0 {
				t.Errorf("xordet adaptive request on escape VC: %v", r)
			}
			if want := 1 + Class(m, 27, 9); r.VC != want {
				t.Errorf("VC = %d, want %d", r.VC, want)
			}
		}
	}
	if adaptive != 1 || escape != 1 {
		t.Errorf("adaptive=%d escape=%d, want 1 and 1: %v", adaptive, escape, reqs)
	}
}

func TestXORDETDifferentClassesDifferentVCs(t *testing.T) {
	m := topo.MustNew(8, 8)
	// Destinations with different xor-classes must get different VCs.
	a, b := 0, 1 // (0,0) xor=0; (1,0) xor=1
	if Class(m, a, 10) == Class(m, b, 10) {
		t.Fatal("test assumption broken")
	}
}

func TestPortAdaptiveness(t *testing.T) {
	m := topo.MustNew(8, 8)
	// Fully adaptive: 1.0 for every pair.
	fp := NewFootprint()
	if got := PortAdaptiveness(m, fp, 0, 27); got != 1.0 {
		t.Errorf("footprint P_adapt = %v, want 1", got)
	}
	if got := PortAdaptiveness(m, NewDBAR(), 0, 63); got != 1.0 {
		t.Errorf("dbar P_adapt = %v, want 1", got)
	}
	// DOR: single path.
	want := 1.0 / float64(m.MinimalPathCount(0, 27))
	if got := PortAdaptiveness(m, NewDOR(), 0, 27); got != want {
		t.Errorf("dor P_adapt = %v, want %v", got, want)
	}
	// Odd-Even: strictly between DOR and fully adaptive on average.
	oeMean := MeanPortAdaptiveness(topo.MustNew(4, 4), NewOddEven())
	dorMean := MeanPortAdaptiveness(topo.MustNew(4, 4), NewDOR())
	if !(oeMean > dorMean && oeMean < 1.0) {
		t.Errorf("odd-even mean P_adapt = %v, dor = %v; want strictly between", oeMean, dorMean)
	}
	// Same node.
	if got := PortAdaptiveness(m, fp, 5, 5); got != 1.0 {
		t.Errorf("P_adapt(5,5) = %v, want 1", got)
	}
}

func TestVCAdaptiveness(t *testing.T) {
	fp := NewFootprint()
	if got := VCAdaptiveness(fp, 10, false); got != 0.9 {
		t.Errorf("footprint VC_adapt = %v, want 0.9", got)
	}
	if got := VCAdaptiveness(fp, 10, true); got != 1.0 {
		t.Errorf("footprint escape VC_adapt = %v, want 1", got)
	}
	if got := VCAdaptiveness(NewDBAR(), 10, false); got != 0 {
		t.Errorf("dbar VC_adapt = %v, want 0", got)
	}
}

func TestTableOne(t *testing.T) {
	rows := TableOne()
	if len(rows) != 4 {
		t.Fatalf("TableOne rows = %d, want 4", len(rows))
	}
	byName := map[string]TableOneRow{}
	for _, r := range rows {
		byName[r.Algorithm] = r
	}
	if byName["footprint"].VCAdapt != Good {
		t.Error("footprint VC_adapt must be Good")
	}
	if byName["dbar"].VCAdapt != Poor {
		t.Error("dbar VC_adapt must be Poor")
	}
	out := FormatTableOne(rows)
	if out == "" {
		t.Error("FormatTableOne returned empty string")
	}
}

func TestFootprintCost(t *testing.T) {
	// 8×8 mesh, 16 VCs: owner registers 16×6=96 bits + 5-bit idle counter.
	c := FootprintCost(64, 16)
	if c.OwnerBitsPerVC != 6 {
		t.Errorf("owner bits = %d, want 6", c.OwnerBitsPerVC)
	}
	if c.IdleCounterBits != 5 {
		t.Errorf("idle counter bits = %d, want 5 (counts 0..16)", c.IdleCounterBits)
	}
	if c.TotalBitsPerPort != 101 {
		t.Errorf("total bits = %d, want 101", c.TotalBitsPerPort)
	}
	if log2ceil(1) != 0 || log2ceil(2) != 1 || log2ceil(3) != 2 {
		t.Error("log2ceil broken")
	}
}

func TestVOQSWNextHopClass(t *testing.T) {
	m := topo.MustNew(8, 8)
	fv := newFakeView(10)
	v := MustNew("dor+voqsw")
	// 0 -> 27 = (3,3): DOR goes East; at node 1 DOR still goes East.
	reqs := route(v, m, 0, 27, fv)
	if len(reqs) != 1 {
		t.Fatalf("dor+voqsw requests = %v, want one", reqs)
	}
	if want := int(topo.East) % 10; reqs[0].VC != want {
		t.Errorf("VC class = %d, want %d (next hop continues East)", reqs[0].VC, want)
	}
	// 0 -> 1: next router IS the destination: Local class.
	reqs = route(v, m, 0, 1, fv)
	if want := int(topo.Local) % 10; reqs[0].VC != want {
		t.Errorf("VC class = %d, want %d (ejection next hop)", reqs[0].VC, want)
	}
}

func TestVOQSWWithEscapeBase(t *testing.T) {
	m := topo.MustNew(8, 8)
	fv := newFakeView(10)
	v := MustNew("dbar+voqsw")
	reqs := route(v, m, 9, 27, fv)
	var adaptive, escape int
	for _, r := range reqs {
		if r.VC == 0 && r.Pri == alloc.Lowest {
			escape++
		} else {
			adaptive++
			if r.VC == 0 {
				t.Errorf("adaptive request on escape VC: %v", r)
			}
		}
	}
	if adaptive != 1 || escape != 1 {
		t.Errorf("adaptive=%d escape=%d, want 1/1: %v", adaptive, escape, reqs)
	}
}

func TestVOQSWSeparatesDownstreamDirections(t *testing.T) {
	m := topo.MustNew(8, 8)
	fv := newFakeView(10)
	v := MustNew("dor+voqsw")
	// From node 1, both packets leave East, but at node 2 one continues
	// East and the other turns South: different classes.
	r1 := route(v, m, 1, 7, fv)  // continues East at 2
	r2 := route(v, m, 1, 18, fv) // turns South at 2
	if r1[0].Dir != r2[0].Dir {
		t.Fatalf("both should leave East: %v %v", r1, r2)
	}
	if r1[0].VC == r2[0].VC {
		t.Errorf("different downstream directions share VC class %d", r1[0].VC)
	}
}

func TestFootprintMaxFootprintVCsCap(t *testing.T) {
	m := topo.MustNew(8, 8)
	fv := newFakeView(10)
	dest := 27
	// Destination owns 2 VCs on East; port otherwise idle (uncongested).
	fv.owner[topo.East][3] = dest
	fv.owner[topo.East][5] = dest
	// Make South look worse so East is chosen.
	for v := 1; v < 10; v++ {
		fv.owner[topo.South][v] = 50
	}
	fp := &Footprint{MaxFootprintVCs: 2}
	reqs := route(fp, m, 9, dest, fv)
	for _, r := range reqs {
		if r.Pri == alloc.Lowest {
			continue // escape
		}
		if r.Dir != topo.East || (r.VC != 3 && r.VC != 5) {
			t.Errorf("capped footprint leaked outside its VCs: %v", r)
		}
	}
	// Without the cap the uncongested branch would request all 9.
	plain := route(NewFootprint(), m, 9, dest, fv)
	if len(plain) <= len(reqs) {
		t.Errorf("cap did not restrict requests: %d vs %d", len(plain), len(reqs))
	}
}
