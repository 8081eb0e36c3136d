package routing

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"nocsim/internal/alloc"
	"nocsim/internal/topo"
)

// scenario is one randomized routing decision: a mesh, a (cur, dest)
// pair, the input port the packet arrived on, and a randomly occupied
// view.
type scenario struct {
	m     topo.Mesh
	cur   int
	dest  int
	inDir topo.Direction
	view  *fakeView
}

// walkScenario draws a reachable routing state on a random mesh with a
// random VC count; see walkScenarioWith.
func walkScenario(rng *rand.Rand, alg Algorithm) scenario {
	m := topo.MustNew(3+rng.Intn(6), 3+rng.Intn(6))
	vcs := 2 + rng.Intn(5)
	return walkScenarioWith(rng, alg, m, vcs)
}

// walkScenarioWith draws a reachable routing state: it injects a packet
// at a random source and walks it toward a random destination for a
// random number of hops, each hop decided by the algorithm itself against
// a fresh goldenView, whose owners and footprint registers name the
// packet's own destination often enough that Footprint's saturated and
// ladder branches — the only code that reads the registers — are visited,
// not just its uncongested one. Turn-model algorithms restrict which
// (inDir, position) states can occur — inventing an arrival port out of
// thin air produces histories the model provably never creates — so
// reachability must come from the algorithm's own decisions.
func walkScenarioWith(rng *rand.Rand, alg Algorithm, m topo.Mesh, vcs int) scenario {
	cur := rng.Intn(m.Nodes())
	dest := rng.Intn(m.Nodes())
	for dest == cur {
		dest = rng.Intn(m.Nodes())
	}
	inDir := topo.Local
	view := goldenView(rng, m.Nodes(), vcs, dest)
	steps := rng.Intn(m.Hops(cur, dest)) // strictly short of the destination
	for i := 0; i < steps; i++ {
		ctx := &Context{
			Mesh: m, Cur: cur, Dest: dest, InDir: inDir,
			View: view.at(m, cur, alg), Rand: rng,
		}
		reqs := alg.Route(ctx, nil)
		if len(reqs) == 0 {
			break
		}
		r := reqs[rng.Intn(len(reqs))]
		next, ok := m.Neighbor(cur, r.Dir)
		if !ok || next == dest {
			break
		}
		inDir = r.Dir.Opposite()
		cur = next
		view = goldenView(rng, m.Nodes(), vcs, dest)
	}
	return scenario{m: m, cur: cur, dest: dest, inDir: inDir, view: view.at(m, cur, alg)}
}

func (s scenario) ctx(seed int64) *Context {
	return &Context{
		Mesh: s.m, Cur: s.cur, Dest: s.dest, InDir: s.inDir,
		View: s.view, Rand: rand.New(rand.NewSource(seed)),
	}
}

// minimalDirSet returns the productive quadrant from cur toward dest.
func minimalDirSet(m topo.Mesh, cur, dest int) map[topo.Direction]bool {
	set := map[topo.Direction]bool{}
	dx, hasX, dy, hasY := m.MinimalDirs(cur, dest)
	if hasX {
		set[dx] = true
	}
	if hasY {
		set[dy] = true
	}
	return set
}

// levelsViolation names what is wrong with how d files its VCs under
// priority levels, or returns "": level None is no request, so nothing may
// be filed there (VCMask, PriOf and the allocator all skip it), and a VC
// is requested at one level at most.
func levelsViolation(d Decision) string {
	if d.Pri[alloc.None] != 0 {
		return fmt.Sprintf("Pri[None] = %#x, want 0", d.Pri[alloc.None])
	}
	var seen uint32
	for p := alloc.Lowest; p <= alloc.Highest; p++ {
		if twice := seen & d.Pri[p]; twice != 0 {
			return fmt.Sprintf("VCs %#x at %v and at a lower level too", twice, p)
		}
		seen |= d.Pri[p]
	}
	return ""
}

// TestRoutingInvariantsRandomized drives every algorithm of Names()
// through randomized reachable decisions and holds the invariants that
// make the fabric minimal and deadlock-free:
//
//   - every request targets a VC in range and a productive (minimal)
//     direction — which also rules out 180° turns and off-mesh ports;
//   - escape-channel algorithms request VC 0 only on the dimension-order
//     direction (Duato's theory needs the escape layer to stay DOR);
//   - Odd-Even variants never request a turn the turn model forbids;
//   - DOR variants request exactly the dimension-order direction;
//   - the decision requests at least one adaptive VC, on a port of the
//     algorithm's static choice set (allowedPorts), so it offers one
//     minimal port;
//   - a freshly injected packet always gets at least one request;
//   - the decision files nothing under level None and no VC under two
//     levels (levelsViolation);
//   - a decision is a pure function of (state, seed): repeating it with
//     an identically seeded RNG yields identical requests — the local
//     form of the engine-level determinism guarantee.
func TestRoutingInvariantsRandomized(t *testing.T) {
	const trials = 500
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			alg := MustNew(name)
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < trials; trial++ {
				s := walkScenario(rng, alg)
				reqs := alg.Route(s.ctx(int64(trial)), nil)

				minimal := minimalDirSet(s.m, s.cur, s.dest)
				dd := dorDir(s.m, s.cur, s.dest)
				for _, r := range reqs {
					if r.VC < 0 || r.VC >= s.view.numVCs {
						t.Fatalf("trial %d: VC %d out of range [0,%d)", trial, r.VC, s.view.numVCs)
					}
					if !minimal[r.Dir] {
						t.Fatalf("trial %d: non-minimal request %v (cur %d dest %d, quadrant %v)",
							trial, r.Dir, s.cur, s.dest, minimal)
					}
					if r.Dir == s.inDir {
						t.Fatalf("trial %d: 180-degree turn back out of input port %v", trial, r.Dir)
					}
					if alg.UsesEscape() && r.VC == 0 && r.Dir != dd {
						t.Fatalf("trial %d: escape VC 0 requested on %v, want DOR direction %v",
							trial, r.Dir, dd)
					}
					if strings.HasPrefix(name, "oddeven") && s.inDir != topo.Local {
						heading := s.inDir.Opposite()
						if forbiddenTurn(heading, r.Dir, s.m.Coord(s.cur).X) {
							t.Fatalf("trial %d: odd-even forbidden turn %v->%v at node %d col %d",
								trial, heading, r.Dir, s.cur, s.m.Coord(s.cur).X)
						}
					}
					if strings.HasPrefix(name, "dor") && r.Dir != dd {
						t.Fatalf("trial %d: DOR misroute %v, want %v", trial, r.Dir, dd)
					}
				}

				if s.inDir == topo.Local && len(reqs) == 0 {
					t.Fatalf("trial %d: no requests for a freshly injected packet (cur %d dest %d)",
						trial, s.cur, s.dest)
				}
				dec := alg.Decide(s.ctx(int64(trial)))
				if bad := levelsViolation(dec); bad != "" {
					t.Fatalf("trial %d: %s", trial, bad)
				}
				allowed := allowedPorts(s.m, alg, s.cur, s.dest, s.inDir)
				if dec.VCMask() == 0 || !slices.Contains(allowed, dec.Dir) {
					t.Fatalf("trial %d: decision requests VCs %#x on %v, want some on one of %v (cur %d dest %d in %v)",
						trial, dec.VCMask(), dec.Dir, allowed, s.cur, s.dest, s.inDir)
				}

				// Purity: an identical decision replayed with an equally
				// seeded RNG must produce identical requests.
				again := alg.Route(s.ctx(int64(trial)), nil)
				if !reflect.DeepEqual(reqs, again) {
					t.Fatalf("trial %d: Route is not deterministic:\nfirst:  %v\nsecond: %v",
						trial, reqs, again)
				}
			}
		})
	}
}

// TestRouteLeavesViewUntouched is the dynamic twin of noclint's
// routepurity rule: a routing decision reads the router's View but must
// not mutate it — the paired-seed comparisons only hold if routing
// cannot perturb the fabric it inspects. The view is deep-copied before
// every Route call and compared structurally after; walkScenario's views
// put every algorithm in each of its congestion states, so a write in
// any branch of a decision shows.
func TestRouteLeavesViewUntouched(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			alg := MustNew(name)
			rng := rand.New(rand.NewSource(23))
			for trial := 0; trial < 200; trial++ {
				s := walkScenario(rng, alg)
				snapshot := s.view.clone()
				alg.Route(s.ctx(int64(trial)), nil)
				if !reflect.DeepEqual(snapshot, s.view) {
					t.Fatalf("trial %d: Route mutated the view:\nbefore: %+v\nafter:  %+v",
						trial, snapshot, s.view)
				}
			}
		})
	}
}

// TestFootprintCandidatesWithinAdaptiveQuadrant pins Footprint's
// defining property: it regulates adaptiveness within the fully-adaptive
// minimal quadrant — candidates are a subset of the quadrant, never
// additional paths — and its escape layer is exactly DOR.
func TestFootprintCandidatesWithinAdaptiveQuadrant(t *testing.T) {
	fp := MustNew("footprint")
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		s := walkScenario(rng, fp)
		reqs := fp.Route(s.ctx(int64(trial)), nil)
		minimal := minimalDirSet(s.m, s.cur, s.dest)
		for _, r := range reqs {
			if r.VC == 0 {
				if dd := dorDir(s.m, s.cur, s.dest); r.Dir != dd {
					t.Fatalf("trial %d: escape request on %v, want %v", trial, r.Dir, dd)
				}
				continue
			}
			if !minimal[r.Dir] {
				t.Fatalf("trial %d: adaptive candidate %v outside minimal quadrant %v",
					trial, r.Dir, minimal)
			}
		}
	}
}

// TestDecisionLevelNoneIsNoRequest holds the three readers of a decision
// to one meaning of level None: a bit filed there is not requested (PriOf,
// as the allocator), so VCMask must not report it either — it would count
// as offered, and keep a head from reading as blocked, without ever being
// grantable.
func TestDecisionLevelNoneIsNoRequest(t *testing.T) {
	d := Decision{Pri: [alloc.Highest + 1]uint32{alloc.None: 0b0110, alloc.Low: 0b1000}}
	if got := d.VCMask(); got != 0b1000 {
		t.Errorf("VCMask = %#b, want 0b1000", got)
	}
	if got := d.PriOf(1); got != alloc.None {
		t.Errorf("PriOf(1) = %v, want none", got)
	}
	if levelsViolation(d) == "" {
		t.Error("levelsViolation accepts bits under None")
	}
	d = Decision{Pri: [alloc.Highest + 1]uint32{alloc.Low: 0b0100, alloc.High: 0b0110}}
	if levelsViolation(d) == "" {
		t.Error("levelsViolation accepts a VC at two levels")
	}
}
