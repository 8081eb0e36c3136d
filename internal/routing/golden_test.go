package routing

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"testing"

	"nocsim/internal/topo"
)

// The golden corpus pins every algorithm's decision function across
// rewrites of how decisions are represented: testdata/route_golden.json
// was recorded at the last commit whose Route built its request list VC
// by VC (d678505), and Route at any later commit must reproduce every
// hash. One hash covers the full request lists (length, then port, VC and
// priority of every request, in order), the other the RNG position after
// each call (the next value the decision's stream would yield), so list
// order, priorities and tie-break draw count are all held.

const (
	goldenFile   = "testdata/route_golden.json"
	goldenStates = 3000
)

var goldenVCs = []int{2, 4, 10, 32}

// goldenEntry is the pair of FNV-1a hashes of one (algorithm, VC count)
// cell over goldenStates reachable states.
type goldenEntry struct {
	Requests string `json:"requests"`
	RNG      string `json:"rng"`
}

// goldenAlg is one pinned algorithm instance and its corpus key.
type goldenAlg struct {
	key string
	alg Algorithm
}

// goldenAlgorithms returns every algorithm of Names() plus the Footprint
// ablation variants the benchmarks construct directly.
func goldenAlgorithms() []goldenAlg {
	var algs []goldenAlg
	for _, name := range Names() {
		algs = append(algs, goldenAlg{name, MustNew(name)})
	}
	return append(algs,
		goldenAlg{"footprint{threshold=2}", &Footprint{Threshold: 2}},
		goldenAlg{"footprint{nopri}", &Footprint{DisablePriorities: true}},
		goldenAlg{"footprint{noreg}", &Footprint{DisableRegulation: true}},
		goldenAlg{"footprint{maxfp=2}", &Footprint{MaxFootprintVCs: 2}},
	)
}

// goldenView fills a view whose occupancy level is itself drawn per port,
// from empty to full, whose owners name the walk's destination half the
// time, and whose footprint registers are drawn independently of the live
// owners, so the walk reaches all of Footprint's congestion states
// (uncongested, ladder with and without reclaimable registers, saturated
// with and without footprints).
func goldenView(rng *rand.Rand, nodes, vcs, dest int) *fakeView {
	pick := func() int {
		if rng.Intn(2) == 0 {
			return dest
		}
		return rng.Intn(nodes)
	}
	fv := newFakeView(vcs)
	fv.regOwner = map[topo.Direction][]int{}
	for d := topo.East; d <= topo.Local; d++ {
		occupancy := float64(rng.Intn(5)) / 4
		ro := make([]int, vcs)
		for v := 0; v < vcs; v++ {
			if rng.Float64() < occupancy {
				fv.owner[d][v] = pick()
			}
			ro[v] = -1
			if rng.Intn(2) == 0 {
				ro[v] = pick()
			}
		}
		fv.regOwner[d] = ro
		fv.downstream[d] = rng.Intn(vcs + 1)
	}
	return fv
}

func computeGolden(alg Algorithm, vcs int) goldenEntry {
	rng := rand.New(rand.NewSource(int64(4000 + vcs)))
	hReq, hRNG := fnv.New64a(), fnv.New64a()
	var buf [8]byte
	put := func(h interface{ Write([]byte) (int, error) }, x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	var reqs []Request
	for i := 0; i < goldenStates; i++ {
		m := topo.MustNew(3+rng.Intn(6), 3+rng.Intn(6))
		s := walkScenarioWith(rng, alg, m, vcs)
		ctx := s.ctx(int64(i))
		reqs = alg.Route(ctx, reqs[:0])
		put(hReq, uint64(len(reqs)))
		for _, r := range reqs {
			put(hReq, uint64(r.Dir)<<32|uint64(r.VC)<<8|uint64(r.Pri))
		}
		put(hRNG, uint64(ctx.Rand.Int63()))
	}
	return goldenEntry{
		Requests: fmt.Sprintf("%016x", hReq.Sum64()),
		RNG:      fmt.Sprintf("%016x", hRNG.Sum64()),
	}
}

func TestRouteGolden(t *testing.T) {
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", goldenFile, err)
	}
	algs := goldenAlgorithms()
	if len(want) != len(algs)*len(goldenVCs) {
		t.Fatalf("%s has %d entries, want %d algorithms x %d VC counts",
			goldenFile, len(want), len(algs), len(goldenVCs))
	}
	for _, a := range algs {
		for _, vcs := range goldenVCs {
			key := fmt.Sprintf("%s/vcs=%d", a.key, vcs)
			t.Run(key, func(t *testing.T) {
				w, ok := want[key]
				if !ok {
					t.Fatalf("no golden entry")
				}
				if got := computeGolden(a.alg, vcs); got != w {
					t.Fatalf("decisions moved: got %+v, want %+v (a change that means to move them replaces this entry)", got, w)
				}
			})
		}
	}
}
