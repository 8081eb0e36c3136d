package routing

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"nocsim/internal/topo"
)

// This file holds the native Go fuzz target for routing decisions. The
// randomized property tests in property_test.go draw scenarios from a
// fixed-seed RNG; the fuzzer instead derives every choice — mesh shape,
// algorithm, VC occupancy, and each hop of the packet's history — from
// the input bytes, so coverage-guided mutation can steer the walk into
// corner states (mesh edges, saturated ports, recycled footprint
// registers) that uniform sampling rarely hits. CI runs the target for a
// short smoke budget; the checked-in corpus below seeds it with the same
// golden shapes the deterministic tests pin.

// fuzzBytes deals the fuzz input out one byte at a time, yielding zeros
// once exhausted so every input decodes to a well-formed scenario.
type fuzzBytes struct {
	data []byte
	pos  int
}

func (fb *fuzzBytes) next() int {
	if fb.pos >= len(fb.data) {
		return 0
	}
	b := fb.data[fb.pos]
	fb.pos++
	return int(b)
}

// pick returns a value in [0, n).
func (fb *fuzzBytes) pick(n int) int { return fb.next() % n }

// fuzzView builds a fakeView whose occupancy, footprint registers and
// downstream congestion all come from the fuzz stream.
func fuzzView(fb *fuzzBytes, nodes, vcs int) *fakeView {
	fv := newFakeView(vcs)
	fv.regOwner = map[topo.Direction][]int{}
	for d := topo.East; d <= topo.Local; d++ {
		ro := make([]int, vcs)
		for v := 0; v < vcs; v++ {
			if fb.next()%2 == 0 {
				fv.owner[d][v] = fb.pick(nodes)
			}
			ro[v] = -1
			if fb.next()%2 == 0 {
				ro[v] = fb.pick(nodes)
			}
		}
		fv.regOwner[d] = ro
		fv.downstream[d] = fb.pick(vcs + 1)
	}
	return fv
}

// FuzzRouteAdmissible decodes a routing scenario from the fuzz input and
// checks that the decision is admissible: minimal, turn-legal, escape-
// correct, filed under sound priority levels and pure.
//
// The packet's arrival port is not decoded directly — turn models make
// some (position, inDir) pairs unreachable by construction, and inventing
// one would report phantom violations. Instead the packet is walked from
// injection, each hop choosing among the algorithm's own requests with a
// fuzz byte, exactly as walkScenario does with an RNG.
func FuzzRouteAdmissible(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0xff, 0x00})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	// One longer seed per algorithm so the initial corpus
	// exercises every Route implementation: the first byte picks names[i].
	for i, name := range Names() {
		seed := make([]byte, 48)
		for j := range seed {
			seed[j] = byte(i*37 + j*11 + len(name))
		}
		seed[0] = byte(i)
		f.Add(seed)
	}

	names := Names()
	f.Fuzz(func(t *testing.T, data []byte) {
		fb := &fuzzBytes{data: data}
		name := names[fb.pick(len(names))]
		alg := MustNew(name)

		m := topo.MustNew(3+fb.pick(6), 3+fb.pick(6))
		vcs := 2 + fb.pick(7)
		cur := fb.pick(m.Nodes())
		dest := fb.pick(m.Nodes())
		if dest == cur {
			dest = (dest + 1) % m.Nodes()
		}
		seed := int64(fb.next())

		// Walk the packet toward dest for a fuzz-chosen number of hops,
		// strictly short of arrival, so (cur, inDir) is reachable.
		inDir := topo.Local
		view := fuzzView(fb, m.Nodes(), vcs)
		steps := fb.pick(m.Hops(cur, dest))
		for i := 0; i < steps; i++ {
			ctx := &Context{
				Mesh: m, Cur: cur, Dest: dest, InDir: inDir,
				View: view.at(m, cur, alg), Rand: rand.New(rand.NewSource(seed)),
			}
			reqs := alg.Route(ctx, nil)
			if len(reqs) == 0 {
				break
			}
			r := reqs[fb.pick(len(reqs))]
			next, ok := m.Neighbor(cur, r.Dir)
			if !ok || next == dest {
				break
			}
			inDir = r.Dir.Opposite()
			cur = next
			view = fuzzView(fb, m.Nodes(), vcs)
		}

		ctx := func(v View) *Context {
			return &Context{
				Mesh: m, Cur: cur, Dest: dest, InDir: inDir,
				View: v, Rand: rand.New(rand.NewSource(seed)),
			}
		}
		snapshot := view.at(m, cur, alg).clone()
		reqs := alg.Route(ctx(view), nil)

		// Route must not mutate the view it inspects.
		if !reflect.DeepEqual(snapshot, view) {
			t.Fatalf("%s: Route mutated the view\nbefore: %+v\nafter:  %+v", name, snapshot, view)
		}

		// Admissibility of every request.
		minimal := minimalDirSet(m, cur, dest)
		dd := dorDir(m, cur, dest)
		for _, r := range reqs {
			if r.VC < 0 || r.VC >= vcs {
				t.Fatalf("%s: VC %d out of range [0,%d)", name, r.VC, vcs)
			}
			if !minimal[r.Dir] {
				t.Fatalf("%s: non-minimal request %v (cur %d dest %d quadrant %v)",
					name, r.Dir, cur, dest, minimal)
			}
			if r.Dir == inDir {
				t.Fatalf("%s: 180-degree turn back out of %v", name, r.Dir)
			}
			if alg.UsesEscape() && r.VC == 0 && r.Dir != dd {
				t.Fatalf("%s: escape VC 0 on %v, want DOR direction %v", name, r.Dir, dd)
			}
			if strings.HasPrefix(name, "oddeven") && inDir != topo.Local {
				if forbiddenTurn(inDir.Opposite(), r.Dir, m.Coord(cur).X) {
					t.Fatalf("%s: forbidden turn %v->%v at node %d col %d",
						name, inDir.Opposite(), r.Dir, cur, m.Coord(cur).X)
				}
			}
			if strings.HasPrefix(name, "dor") && r.Dir != dd {
				t.Fatalf("%s: DOR misroute %v, want %v", name, r.Dir, dd)
			}
		}
		if inDir == topo.Local && len(reqs) == 0 {
			t.Fatalf("%s: no requests for a freshly injected packet (cur %d dest %d)", name, cur, dest)
		}
		if bad := levelsViolation(alg.Decide(ctx(view))); bad != "" {
			t.Fatalf("%s: %s", name, bad)
		}

		// Purity: the decision is a function of (state, seed).
		again := alg.Route(ctx(view), nil)
		if !reflect.DeepEqual(reqs, again) {
			t.Fatalf("%s: Route not deterministic\nfirst:  %v\nsecond: %v", name, reqs, again)
		}
	})
}
